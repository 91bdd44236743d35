package core

import (
	"sync"
	"testing"

	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

func newStatsAnalyzer() *BatchAnalyzer {
	return NewBatchAnalyzer(newDet(), cover.NewBitmap(), true)
}

// sharedBatch is a batch over words every thread touches: word w is loaded
// by site 1+w%3 and stored by site 4+w%3.
func sharedBatch(words int) []LogRecord {
	var recs []LogRecord
	for w := 0; w < words; w++ {
		addr := pmem.Addr(w) * 8
		recs = append(recs,
			LogRecord{Addr: addr, Site: site.ID(1 + w%3)},
			LogRecord{Addr: addr, Site: site.ID(4 + w%3), Kind: KindStore})
	}
	return recs
}

// TestBatchStatsDoNotAllocate pins the flat statistics: once a batch's
// addresses are recorded, draining another batch over them allocates
// nothing, whichever known thread it comes from.
func TestBatchStatsDoNotAllocate(t *testing.T) {
	b := newStatsAnalyzer()
	recs := sharedBatch(128)
	for tid := pmem.ThreadID(0); tid < 4; tid++ {
		b.Process(tid, 0, recs)
	}
	clock := uint32(1)
	allocs := testing.AllocsPerRun(200, func() {
		b.Process(pmem.ThreadID(clock%4), clock, recs)
		clock++
	})
	if allocs != 0 {
		t.Fatalf("draining a batch over recorded addresses: %.1f allocs/op, want 0", allocs)
	}
	if st := b.Stats()[8]; st == nil || st.Loads(2) != 4+201 || st.Stores(5) != 4+201 {
		t.Fatalf("drains must still be counted: %+v", st)
	}
}

// TestBatchStatsConcurrentDrains drains overlapping batches from four
// goroutines at once; the handed-off statistics and the per-thread clocks
// must count every record exactly once.
func TestBatchStatsConcurrentDrains(t *testing.T) {
	const (
		threads = 4
		rounds  = 200
		shared  = 64
	)
	b := newStatsAnalyzer()
	recs := sharedBatch(shared)
	var wg sync.WaitGroup
	for tid := pmem.ThreadID(0); tid < threads; tid++ {
		wg.Add(1)
		go func(tid pmem.ThreadID) {
			defer wg.Done()
			private := []LogRecord{{Addr: pmem.Addr(1<<16) + pmem.Addr(tid)*8, Site: 9, Kind: KindStore}}
			for i := 0; i < rounds; i++ {
				b.Process(tid, uint32(i), recs)
				b.Process(tid, uint32(i), private)
			}
		}(tid)
	}
	wg.Wait()

	stats := b.Stats()
	if len(stats) != shared+threads {
		t.Fatalf("%d addresses recorded, want %d", len(stats), shared+threads)
	}
	for w := 0; w < shared; w++ {
		st := stats[pmem.Addr(w)*8]
		ld, sd := site.ID(1+w%3), site.ID(4+w%3)
		if st.Total != 2*threads*rounds || st.Threads() != threads ||
			st.Loads(ld) != threads*rounds || st.Stores(sd) != threads*rounds {
			t.Fatalf("word %d: total %d, threads %d, loads %d, stores %d",
				w, st.Total, st.Threads(), st.Loads(ld), st.Stores(sd))
		}
	}
	for tid := pmem.ThreadID(0); tid < threads; tid++ {
		st := stats[pmem.Addr(1<<16)+pmem.Addr(tid)*8]
		if st.Total != rounds || st.Shared() {
			t.Fatalf("thread %d private word: total %d, shared %v", tid, st.Total, st.Shared())
		}
		if c := b.Clock(tid); c != rounds {
			t.Fatalf("thread %d clock = %d, want %d", tid, c, rounds)
		}
	}
	if batches, records := b.Counts(); batches != 2*threads*rounds || records != threads*rounds*(2*shared+1) {
		t.Fatalf("counts = %d batches, %d records", batches, records)
	}
	if len(b.Stats()) != 0 {
		t.Fatalf("a second hand-off must start empty")
	}
}
