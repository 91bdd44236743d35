package sched

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// refStats is the map-based model AddrStats replaced: per-site load and
// store counts, the set of accessing threads and the access total.
type refStats struct {
	loads, stores map[site.ID]int
	threads       map[pmem.ThreadID]struct{}
	total         int
}

func newRefStats() *refStats {
	return &refStats{
		loads:   map[site.ID]int{},
		stores:  map[site.ID]int{},
		threads: map[pmem.ThreadID]struct{}{},
	}
}

func (r *refStats) record(t pmem.ThreadID, s site.ID, isStore bool) {
	if isStore {
		r.stores[s]++
	} else {
		r.loads[s]++
	}
	r.threads[t] = struct{}{}
	r.total++
}

func (r *refStats) merge(o *refStats) {
	for s, n := range o.loads {
		r.loads[s] += n
	}
	for s, n := range o.stores {
		r.stores[s] += n
	}
	for t := range o.threads {
		r.threads[t] = struct{}{}
	}
	r.total += o.total
}

// refQueue is BuildQueue over the map model: shared addresses with at least
// one load site and one store site, by priority descending, then address.
func refQueue(stats map[pmem.Addr]*refStats) *Queue {
	q := &Queue{}
	for addr, st := range stats {
		if len(st.threads) < 2 || len(st.loads) == 0 || len(st.stores) == 0 {
			continue
		}
		e := &Entry{Addr: addr, LoadSites: map[site.ID]struct{}{}, StoreSites: map[site.ID]struct{}{}, Priority: st.total}
		for s := range st.loads {
			e.LoadSites[s] = struct{}{}
		}
		for s := range st.stores {
			e.StoreSites[s] = struct{}{}
		}
		q.entries = append(q.entries, e)
	}
	sort.Slice(q.entries, func(i, j int) bool {
		a, b := q.entries[i], q.entries[j]
		return a.Priority > b.Priority || a.Priority == b.Priority && a.Addr < b.Addr
	})
	return q
}

// access is one recorded access in a generated sequence.
type access struct {
	addr    pmem.Addr
	thread  pmem.ThreadID
	site    site.ID
	isStore bool
}

// randomAccesses draws n accesses over a few addresses. Thread IDs include
// values outside the bitmask range (negative and >= 64), and the site pool
// is larger than statsInline, so hot addresses spill; every site is used as
// both a load and a store.
func randomAccesses(rng *rand.Rand, n int) []access {
	threads := []pmem.ThreadID{0, 1, 2, 3, 63, 64, 65, 200, -1}
	out := make([]access, n)
	for i := range out {
		out[i] = access{
			addr:    pmem.Addr(rng.Intn(12)) * 8,
			thread:  threads[rng.Intn(1+rng.Intn(len(threads)))],
			site:    site.ID(1 + rng.Intn(3*statsInline)),
			isStore: rng.Intn(2) == 0,
		}
	}
	return out
}

func recordFlat(accs []access) map[pmem.Addr]*AddrStats {
	stats := map[pmem.Addr]*AddrStats{}
	for _, a := range accs {
		st, ok := stats[a.addr]
		if !ok {
			st = new(AddrStats)
			stats[a.addr] = st
		}
		st.Record(a.thread, a.site, a.isStore)
	}
	return stats
}

func recordRef(accs []access) map[pmem.Addr]*refStats {
	stats := map[pmem.Addr]*refStats{}
	for _, a := range accs {
		st, ok := stats[a.addr]
		if !ok {
			st = newRefStats()
			stats[a.addr] = st
		}
		st.record(a.thread, a.site, a.isStore)
	}
	return stats
}

// mergeFlat folds src into dst the way the fuzzer folds an execution's
// statistics into its campaign table.
func mergeFlat(dst, src map[pmem.Addr]*AddrStats) {
	for addr, st := range src {
		agg, ok := dst[addr]
		if !ok {
			agg = new(AddrStats)
			dst[addr] = agg
		}
		agg.Merge(st)
	}
}

func mergeRef(dst, src map[pmem.Addr]*refStats) {
	for addr, st := range src {
		agg, ok := dst[addr]
		if !ok {
			agg = newRefStats()
			dst[addr] = agg
		}
		agg.merge(st)
	}
}

func checkAgainstRef(t *testing.T, label string, got map[pmem.Addr]*AddrStats, want map[pmem.Addr]*refStats) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d addresses, model has %d", label, len(got), len(want))
	}
	for addr, w := range want {
		g := got[addr]
		if g == nil {
			t.Fatalf("%s: address %#x missing", label, addr)
		}
		if g.Total != w.total || g.Threads() != len(w.threads) || g.Shared() != (len(w.threads) > 1) {
			t.Fatalf("%s: %#x total/threads = %d/%d, model %d/%d", label, addr, g.Total, g.Threads(), w.total, len(w.threads))
		}
		for s := site.ID(0); s <= 3*statsInline+1; s++ {
			if g.Loads(s) != w.loads[s] || g.Stores(s) != w.stores[s] {
				t.Fatalf("%s: %#x site %d loads/stores = %d/%d, model %d/%d",
					label, addr, s, g.Loads(s), g.Stores(s), w.loads[s], w.stores[s])
			}
		}
	}
	gq, wq := BuildQueue(got), refQueue(want)
	if gq.Len() != wq.Len() {
		t.Fatalf("%s: queue has %d entries, model %d", label, gq.Len(), wq.Len())
	}
	for i := 0; ; i++ {
		g, w := gq.Pop(), wq.Pop()
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: queue entry %d = %+v, model %+v", label, i, g, w)
		}
		if g == nil {
			break
		}
	}
}

// TestAddrStatsMatchesMapModel runs seeded random access sequences through
// the flat AddrStats and through the map model it replaced, and requires
// the same counts, the same merges in either order and the same queue.
func TestAddrStatsMatchesMapModel(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a, b := randomAccesses(rng, 1+rng.Intn(300)), randomAccesses(rng, 1+rng.Intn(300))
		checkAgainstRef(t, "record", recordFlat(a), recordRef(a))

		wantAB := map[pmem.Addr]*refStats{}
		mergeRef(wantAB, recordRef(a))
		mergeRef(wantAB, recordRef(b))

		ab := map[pmem.Addr]*AddrStats{}
		mergeFlat(ab, recordFlat(a))
		mergeFlat(ab, recordFlat(b))
		checkAgainstRef(t, "merge a,b", ab, wantAB)

		ba := recordFlat(b)
		mergeFlat(ba, recordFlat(a))
		checkAgainstRef(t, "merge b,a", ba, wantAB)
	}
}
