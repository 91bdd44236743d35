package core

import (
	"sync"
	"sync/atomic"

	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
)

// LogRecord is one entry of a thread's epoch-append access log. Hooks append
// a record per PM access without taking any analysis lock; the deferred
// analyses (alias-pair coverage, per-address statistics, redundant-store
// bookkeeping) run over whole batches when the log drains at a sync point.
// Everything a deferred analysis needs is captured at access time — in
// particular Prev, the accessor displaced by the access — so drain timing
// changes when results are published, never what they are.
type LogRecord struct {
	// Addr is the accessed PM offset.
	Addr pmem.Addr
	// Prev is the word's previous accessor, swapped out by this access.
	Prev pmem.Accessor
	// Site is the instruction site of this access.
	Site site.ID
	// Kind is a bitmask of the Kind* flags below.
	Kind uint8
}

// Kind flags of a LogRecord.
const (
	// KindStore marks the access as a store (CAS counts as a store).
	KindStore uint8 = 1 << iota
	// KindDirty records the persistency state the access observed/left,
	// the P component of the paper's (I, P, T) alias triple.
	KindDirty
	// KindRedundant marks a store that overwrote an identical non-zero
	// value (the unnecessary-write checker's trigger).
	KindRedundant
)

// BatchAnalyzer runs the deferred per-access analyses over drained log
// batches. One analyzer is shared by all threads of an execution environment;
// a drain costs one mutex acquisition per batch (statistics only) instead of
// one per access, and the alias bitmap is lock-free as before.
type BatchAnalyzer struct {
	det   *Detector
	alias *cover.Bitmap

	batches atomic.Int64
	records atomic.Int64

	collectStats bool
	statsMu      sync.Mutex
	stats        map[pmem.Addr]*sched.AddrStats
	clocks       map[pmem.ThreadID]uint32
}

// NewBatchAnalyzer creates an analyzer feeding the given detector and alias
// coverage bitmap. collectStats enables per-address access statistics.
func NewBatchAnalyzer(det *Detector, alias *cover.Bitmap, collectStats bool) *BatchAnalyzer {
	return &BatchAnalyzer{
		det:          det,
		alias:        alias,
		collectStats: collectStats,
		stats:        make(map[pmem.Addr]*sched.AddrStats),
		clocks:       make(map[pmem.ThreadID]uint32),
	}
}

// Process analyzes one drained batch from thread tid. clock is the thread's
// epoch counter at the drain (FastTrack-style: it advances once per drain, so
// all records of a batch share the epoch). Records are processed in program
// order.
func (b *BatchAnalyzer) Process(tid pmem.ThreadID, clock uint32, recs []LogRecord) {
	b.batches.Add(1)
	b.records.Add(int64(len(recs)))
	for i := range recs {
		r := &recs[i]
		if r.Prev.Valid && r.Prev.Thread != tid {
			b.alias.Set(cover.AliasHash(r.Prev.Site, r.Prev.Dirty, uint32(r.Site), r.Kind&KindDirty != 0))
		}
		if r.Kind&KindRedundant != 0 {
			b.det.OnRedundantStore(r.Site, r.Addr)
		}
	}
	b.statsMu.Lock()
	if clock >= b.clocks[tid] {
		b.clocks[tid] = clock + 1
	}
	if b.collectStats {
		for i := range recs {
			r := &recs[i]
			st, ok := b.stats[r.Addr]
			if !ok {
				st = sched.NewAddrStats()
				b.stats[r.Addr] = st
			}
			st.Record(tid, r.Site, r.Kind&KindStore != 0)
		}
	}
	b.statsMu.Unlock()
}

// Stats hands over the per-address statistics accumulated so far. The caller
// owns the returned map: the analyzer starts an empty one, so a later drain
// never writes to it and a later call returns only what accumulated since.
// Statistics become visible when a thread's log drains (sync points, full
// log, thread exit), so callers take them once, at a quiescent point.
func (b *BatchAnalyzer) Stats() map[pmem.Addr]*sched.AddrStats {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	out := b.stats
	b.stats = make(map[pmem.Addr]*sched.AddrStats)
	return out
}

// Counts returns how many batches and log records the analyzer has
// processed, for span attribution of conflict-analysis cost.
func (b *BatchAnalyzer) Counts() (batches, records int64) {
	if b == nil {
		return 0, 0
	}
	return b.batches.Load(), b.records.Load()
}

// Clock returns the epoch the analyzer has observed from thread tid: one past
// the clock of its latest drained batch. Zero means no batch was processed.
func (b *BatchAnalyzer) Clock(tid pmem.ThreadID) uint32 {
	b.statsMu.Lock()
	defer b.statsMu.Unlock()
	return b.clocks[tid]
}
