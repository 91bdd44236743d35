package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// DefaultHangTimeout is the spin-lock hang bound used when Config leaves
// HangTimeout zero. It is the single source of the default: the runtime and
// post-failure validation both inherit it, so the two layers cannot disagree
// about when a spinning thread counts as hung.
const DefaultHangTimeout = 250 * time.Millisecond

// Config configures an execution environment.
type Config struct {
	// Strategy is the interleaving exploration strategy; nil means
	// sched.None.
	Strategy sched.Strategy
	// HangTimeout bounds spin-lock acquisition; a thread spinning longer
	// is reported as hung. Zero selects DefaultHangTimeout.
	HangTimeout time.Duration
	// OnInconsistency, when set, is invoked synchronously at the moment a
	// durable side effect based on non-persisted data is detected, while
	// the pool still reflects the buggy state; the fuzzer uses it to
	// duplicate the pool at the crash point (paper §4.4).
	OnInconsistency func(*Env, *core.Inconsistency)
	// OnSync is the synchronization-inconsistency analogue.
	OnSync func(*Env, *core.SyncInconsistency)
	// OnHang is invoked when a spin lock exceeds HangTimeout.
	OnHang func(*Env, HangReport)
	// CollectStats enables per-address access statistics (needed to build
	// the priority queue; costs memory on large pools).
	CollectStats bool
	// TraceDepth, when positive, records the last TraceDepth PM accesses
	// in a ring buffer; bug reports attach the tail as interleaving
	// evidence.
	TraceDepth int
}

// HangReport describes a hung lock acquisition.
type HangReport struct {
	Thread pmem.ThreadID
	Addr   pmem.Addr
	Site   string
	Stack  []string
}

// Env is one instrumented execution environment: a pool plus the detection
// and exploration machinery shared by all threads of a fuzz campaign
// execution.
type Env struct {
	pool   *pmem.Pool
	labels *taint.Table
	det    *core.Detector
	cov    *cover.Coverage
	strat  sched.Strategy
	cfg    Config

	// stratNone records that the strategy is the no-op sched.None, letting
	// hooks skip the per-access interface calls entirely.
	stratNone bool

	// batch runs the deferred per-access analyses (alias pairs, statistics,
	// redundant stores) over thread log drains.
	batch *core.BatchAnalyzer

	trace *traceRing

	// recordOn is read on every store hook; it is atomic so the common
	// recorder-off case costs one load instead of a mutex round trip.
	recordOn atomic.Bool
	recMu    sync.Mutex
	written  map[pmem.Addr]struct{} // word-aligned offsets overwritten

	// cancelled is checked at the top of every pool-mutating hook; the
	// validation watchdog sets it to stop an abandoned recovery goroutine
	// from mutating its pool after the wall-clock deadline expired.
	cancelled atomic.Bool

	threadsMu sync.Mutex
	nextTID   pmem.ThreadID

	// lockMu guards the volatile lock-ownership bookkeeping below. It is
	// not part of the PM image: holders are recorded so a thread spinning
	// on a lock whose owner has already exited — a leaked lock from a
	// missing-unlock bug, or an owner abandoned after its own hang — can
	// fail fast instead of burning the full hang timeout. A held lock
	// with NO recorded holder (e.g. a persistent lock word left set in a
	// crash image that recovery then trips over) keeps the timeout path:
	// absence of an owner is exactly the recovery-hang case the timeout
	// exists to report.
	lockMu      sync.Mutex
	lockHolders map[pmem.Addr]pmem.ThreadID
	liveThreads map[pmem.ThreadID]struct{}
}

// NewEnv creates an environment over the given pool.
func NewEnv(pool *pmem.Pool, cfg Config) *Env {
	if cfg.Strategy == nil {
		cfg.Strategy = sched.None{}
	}
	if cfg.HangTimeout <= 0 {
		cfg.HangTimeout = DefaultHangTimeout
	}
	labels := taint.NewTable()
	e := &Env{
		pool:   pool,
		labels: labels,
		det:    core.NewDetector(labels),
		cov:    cover.New(),
		strat:  cfg.Strategy,
		cfg:    cfg,
	}
	_, e.stratNone = cfg.Strategy.(sched.None)
	e.lockHolders = make(map[pmem.Addr]pmem.ThreadID)
	e.liveThreads = make(map[pmem.ThreadID]struct{})
	e.batch = core.NewBatchAnalyzer(e.det, e.cov.Alias, cfg.CollectStats)
	if cfg.TraceDepth > 0 {
		e.trace = newTraceRing(cfg.TraceDepth)
	}
	return e
}

// Pool returns the environment's pool.
func (e *Env) Pool() *pmem.Pool { return e.pool }

// Detector returns the environment's PM checkers.
func (e *Env) Detector() *core.Detector { return e.det }

// Coverage returns the environment's coverage maps.
func (e *Env) Coverage() *cover.Coverage { return e.cov }

// Labels returns the environment's taint table.
func (e *Env) Labels() *taint.Table { return e.labels }

// Strategy returns the interleaving strategy in use.
func (e *Env) Strategy() sched.Strategy { return e.strat }

// BeginExec notifies the strategy that an execution with n worker threads is
// starting.
func (e *Env) BeginExec(n int) { e.strat.BeginExec(n) }

// EndExec notifies the strategy that the execution finished.
func (e *Env) EndExec() { e.strat.EndExec() }

// Spawn allocates the next thread handle and registers it with the strategy.
func (e *Env) Spawn() *Thread {
	e.threadsMu.Lock()
	id := e.nextTID
	e.nextTID++
	e.threadsMu.Unlock()
	e.lockMu.Lock()
	e.liveThreads[id] = struct{}{}
	e.lockMu.Unlock()
	e.strat.ThreadStart(id)
	th := &Thread{ID: id, env: e, sites: site.NewCache()}
	if e.trace != nil {
		th.shard = e.trace.shardFor(id)
	}
	return th
}

// AnnotateSyncVar registers a persistent synchronization variable annotation
// (the pm_sync_var_hint equivalent, paper §5).
func (e *Env) AnnotateSyncVar(v core.SyncVar) { e.det.AnnotateSyncVar(v) }

// noteLockAcquired records t as the volatile owner of the lock word.
func (e *Env) noteLockAcquired(addr pmem.Addr, t pmem.ThreadID) {
	e.lockMu.Lock()
	e.lockHolders[addr] = t
	e.lockMu.Unlock()
}

// noteLockReleased clears the volatile owner of the lock word.
func (e *Env) noteLockReleased(addr pmem.Addr) {
	e.lockMu.Lock()
	delete(e.lockHolders, addr)
	e.lockMu.Unlock()
}

// noteThreadExit removes t from the live set. Locks t still holds stay in
// lockHolders pointing at a dead thread, which is what lets their waiters
// fail fast.
func (e *Env) noteThreadExit(t pmem.ThreadID) {
	e.lockMu.Lock()
	delete(e.liveThreads, t)
	e.lockMu.Unlock()
}

// lockUnacquirable reports whether the lock word can never be granted to
// thread self: its recorded owner has exited (no live thread can release
// it), or the owner is self (the locks are non-recursive, so a thread
// spinning on a lock it already holds — the classic consequence of a
// missing-unlock bug earlier in its own op stream — waits forever). Either
// way the waiter is hung no matter how long it spins.
func (e *Env) lockUnacquirable(addr pmem.Addr, self pmem.ThreadID) bool {
	e.lockMu.Lock()
	defer e.lockMu.Unlock()
	holder, held := e.lockHolders[addr]
	if !held {
		return false
	}
	if holder == self {
		return true
	}
	_, live := e.liveThreads[holder]
	return !live
}

// Stats hands over the per-address access statistics collected so far; the
// caller owns the returned map (see core.BatchAnalyzer.Stats). With the
// epoch-log hooks, statistics become visible when a thread's log drains (sync
// points, full log, thread exit), so callers take them once the threads have
// exited, typically after EndExec.
func (e *Env) Stats() map[pmem.Addr]*sched.AddrStats {
	return e.batch.Stats()
}

// Batch returns the environment's batch analyzer; tests use it to inspect
// drain clocks.
func (e *Env) Batch() *core.BatchAnalyzer { return e.batch }

// CancelError is panicked by a hook call on a cancelled environment. The
// goroutine driving the cancelled execution recovers it and exits; unlike
// HangError it is not a finding, only a teardown signal.
type CancelError struct{}

// Error implements error.
func (CancelError) Error() string { return "rt: execution environment cancelled" }

// Cancel marks the environment cancelled: every subsequent pool-mutating hook
// call panics CancelError, so a goroutine stuck in an instrumented loop stops
// touching the pool at its next access. The validation watchdog calls it when
// a recovery run exceeds its wall-clock deadline. Goroutines that never call
// another hook (a plain `for {}`) cannot be stopped — Go has no goroutine
// kill — but they also cannot corrupt the pool.
func (e *Env) Cancel() { e.cancelled.Store(true) }

// Cancelled reports whether Cancel was called.
func (e *Env) Cancelled() bool { return e.cancelled.Load() }

// checkCancel panics CancelError when the environment is cancelled. One
// atomic load on the hot path, same pattern as recordOn.
func (e *Env) checkCancel() {
	if e.cancelled.Load() {
		panic(CancelError{})
	}
}

// EnableWriteRecorder starts recording every word offset written through the
// hooks; post-failure validation uses it to check whether recovery overwrote
// the durable side effects of a detected inconsistency.
func (e *Env) EnableWriteRecorder() {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	e.written = make(map[pmem.Addr]struct{})
	e.recordOn.Store(true)
}

// WrittenWords returns the recorded word-aligned offsets.
func (e *Env) WrittenWords() map[pmem.Addr]struct{} {
	e.recMu.Lock()
	defer e.recMu.Unlock()
	out := make(map[pmem.Addr]struct{}, len(e.written))
	for a := range e.written {
		out[a] = struct{}{}
	}
	return out
}

// RangeOverwritten reports whether every word of the range was overwritten
// since EnableWriteRecorder.
func (e *Env) RangeOverwritten(r pmem.Range) bool {
	if !e.recordOn.Load() {
		return false
	}
	e.recMu.Lock()
	defer e.recMu.Unlock()
	if r.Len == 0 {
		return true
	}
	for w := r.Off / pmem.WordSize; w <= (r.End()-1)/pmem.WordSize; w++ {
		if _, ok := e.written[w*pmem.WordSize]; !ok {
			return false
		}
	}
	return true
}

func (e *Env) recordWrite(addr pmem.Addr, n uint64) {
	if !e.recordOn.Load() || n == 0 {
		return
	}
	e.recMu.Lock()
	defer e.recMu.Unlock()
	for w := addr / pmem.WordSize; w <= (addr+n-1)/pmem.WordSize; w++ {
		e.written[w*pmem.WordSize] = struct{}{}
	}
}
