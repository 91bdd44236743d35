// Package pmplain is the uninstrumented persistent-memory dialect consumed
// by the pminstr generator (internal/instr, cmd/pminstr). A plain package
// writes its PM accesses against pmplain.Mem — whose method names mirror the
// rt.Thread hook vocabulary exactly, minus every taint label and multi-value
// label result — and pminstr rewrites each access into the corresponding
// instrumented hook call, threading labels through automatically.
//
// The dialect is directly runnable: Mem forwards to the raw pmem.Pool, so a
// plain package can be unit-tested standalone before it is ever
// instrumented. What a plain package can NOT do is participate in a fuzzing
// campaign — only the generated shadow package (with real rt.Thread hooks)
// registers as a target.
//
// Method-name parity with rt.Thread is deliberate and load-bearing: the
// generator classifies accesses through internal/lint's exported hook table
// (lint.ThreadHookKind), the same table pmvet's analyzers check, so the
// generator and the linter can never disagree about what counts as a PM
// operation.
package pmplain

import (
	"runtime"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
)

// Hint is one recorded SyncVarHint annotation: the plain-dialect spelling of
// the paper's pm_sync_var_hint. In the plain dialect the hint is volatile
// bookkeeping only (tests can inspect it); pminstr rewrites the call into
// the runtime's AnnotateSyncVar.
type Hint struct {
	Name    string
	Addr    pmem.Addr
	Size    uint64
	InitVal uint64
}

// Mem is a plain, hook-free view of a persistent pool. One Mem per logical
// thread, like one rt.Thread per thread in instrumented code.
type Mem struct {
	pool *pmem.Pool
	tid  pmem.ThreadID

	mu    sync.Mutex
	hints []Hint
}

// NewMem wraps pool for thread tid.
func NewMem(pool *pmem.Pool, tid pmem.ThreadID) *Mem {
	return &Mem{pool: pool, tid: tid}
}

// Pool exposes the underlying pool (plain-dialect analogue of
// rt.Thread.Env().Pool()).
func (m *Mem) Pool() *pmem.Pool { return m.pool }

// Hints returns the SyncVarHint annotations recorded so far.
func (m *Mem) Hints() []Hint {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Hint(nil), m.hints...)
}

// Load64 reads one word.
func (m *Mem) Load64(addr pmem.Addr) uint64 { return m.pool.Load64(addr) }

// LoadBytes reads n bytes.
func (m *Mem) LoadBytes(addr pmem.Addr, n uint64) []byte { return m.pool.LoadBytes(addr, n) }

// Store64 writes one word through the cache (needs Flush+Fence to persist).
func (m *Mem) Store64(addr pmem.Addr, val uint64) { m.pool.Store64(m.tid, 0, addr, val) }

// StoreBytes writes bytes through the cache.
func (m *Mem) StoreBytes(addr pmem.Addr, data []byte) { m.pool.StoreBytes(m.tid, 0, addr, data) }

// NTStore64 writes one word non-temporally (needs a trailing Fence).
func (m *Mem) NTStore64(addr pmem.Addr, val uint64) { m.pool.NTStore64(m.tid, 0, addr, val) }

// NTStoreBytes writes bytes non-temporally.
func (m *Mem) NTStoreBytes(addr pmem.Addr, data []byte) { m.pool.NTStoreBytes(m.tid, 0, addr, data) }

// CAS64 atomically compares-and-swaps one word, returning whether it swapped
// and the value observed.
func (m *Mem) CAS64(addr pmem.Addr, old, new uint64) (bool, uint64) {
	return m.pool.CAS64(m.tid, 0, addr, old, new)
}

// Flush writes the cache lines covering [addr, addr+n) back (asynchronously;
// a Fence orders them).
func (m *Mem) Flush(addr pmem.Addr, n uint64) { m.pool.Flush(m.tid, addr, n) }

// Fence drains pending flushes and non-temporal stores.
func (m *Mem) Fence() { m.pool.Fence(m.tid) }

// Persist is Flush+Fence fused.
func (m *Mem) Persist(addr pmem.Addr, n uint64) { m.pool.PersistNow(m.tid, addr, n) }

// SpinLock acquires the in-PM test-and-set lock at addr.
func (m *Mem) SpinLock(addr pmem.Addr) {
	for {
		if ok, _ := m.CAS64(addr, 0, 1); ok {
			return
		}
		runtime.Gosched()
	}
}

// SpinUnlock releases the in-PM lock at addr.
func (m *Mem) SpinUnlock(addr pmem.Addr) { m.Store64(addr, 0) }

// Branch marks a control-flow decision point (a scheduling hint in
// instrumented code; a no-op here).
func (m *Mem) Branch() {}

// Mutex is the plain-dialect volatile lock; pminstr rewrites it to
// rt.Mutex, whose waiters the PM-aware scheduler can see. Lock and Unlock
// take the calling thread's Mem, like rt.Mutex takes its rt.Thread; a nil
// Mem is allowed.
type Mutex struct{ mu sync.Mutex }

// Lock acquires the mutex.
func (mu *Mutex) Lock(*Mem) { mu.mu.Lock() }

// Unlock releases the mutex.
func (mu *Mutex) Unlock(*Mem) { mu.mu.Unlock() }

// SyncVarHint declares a persistent synchronization variable (lock word,
// status flag) for the detector's sync-inconsistency analysis. pminstr
// rewrites the call into t.Env().AnnotateSyncVar(core.SyncVar{...}).
func (m *Mem) SyncVarHint(name string, addr pmem.Addr, size, initVal uint64) {
	m.mu.Lock()
	m.hints = append(m.hints, Hint{Name: name, Addr: addr, Size: size, InitVal: initVal})
	m.mu.Unlock()
}
