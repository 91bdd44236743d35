package sched

import (
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

func twoEntryStats() map[pmem.Addr]*AddrStats {
	ld, st := site.Named("r-load.go"), site.Named("r-store.go")
	stats := map[pmem.Addr]*AddrStats{}
	hot := new(AddrStats)
	for i := 0; i < 5; i++ {
		hot.Record(1, ld, false)
		hot.Record(2, st, true)
	}
	cold := new(AddrStats)
	cold.Record(1, ld, false)
	cold.Record(2, st, true)
	stats[0xA] = hot
	stats[0xB] = cold
	return stats
}

func TestReprioritize(t *testing.T) {
	q := BuildQueue(twoEntryStats())
	q.Reprioritize(func(e *Entry) int {
		if e.Addr == 0xB {
			return 1000
		}
		return 0
	})
	if e := q.Pop(); e == nil || e.Addr != 0xB {
		t.Fatalf("first = %+v, want boosted 0xB", e)
	}
	if e := q.Pop(); e == nil || e.Addr != 0xA {
		t.Fatalf("second = %+v, want 0xA", e)
	}
}

// Reprioritize after the first Pop must not reorder: entries behind the
// cursor would repeat or vanish.
func TestReprioritizeAfterPopIsNoop(t *testing.T) {
	q := BuildQueue(twoEntryStats())
	if e := q.Pop(); e == nil || e.Addr != 0xA {
		t.Fatalf("first = %+v, want 0xA", e)
	}
	q.Reprioritize(func(e *Entry) int { return 1000 })
	if e := q.Pop(); e == nil || e.Addr != 0xB {
		t.Fatalf("second = %+v, want 0xB", e)
	}
	if e := q.Pop(); e != nil {
		t.Fatalf("queue should be exhausted, got %+v", e)
	}
}
