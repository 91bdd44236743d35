package sched

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// AddrStats accumulates the observed accesses to one PM address. The runtime
// records every instrumented load and store into per-execution statistics;
// the fuzzer merges each execution's into one campaign-wide table, never
// reset, and builds every priority queue of shared data accesses from that
// table (paper §4.2.2).
//
// The representation is flat so that recording an access allocates nothing:
// the accessing threads are a bitmask (thread IDs outside [0, 64) go to a
// short overflow list), and the per-site counters are a small inline array
// of (site, load/store, count) entries that spills to a slice only past
// statsInline distinct pairs. The zero value is empty and ready to use.
type AddrStats struct {
	// Total is the number of recorded accesses.
	Total int

	threads  uint64          // bit t set: thread t (0 <= t < 64) accessed
	overflow []pmem.ThreadID // distinct accessing threads outside [0, 64)
	nInline  int
	inline   [statsInline]siteCount
	spill    []siteCount
}

// statsInline is how many (site, kind) counters an AddrStats holds before
// it allocates; most PM words are touched by a handful of instructions.
const statsInline = 4

// siteCount counts the accesses of one instruction site of one kind.
type siteCount struct {
	site  site.ID
	store bool
	n     int
}

// Record adds one access.
func (a *AddrStats) Record(t pmem.ThreadID, s site.ID, isStore bool) {
	a.addThread(t)
	a.addSite(s, isStore, 1)
	a.Total++
}

// Merge folds other into a.
func (a *AddrStats) Merge(other *AddrStats) {
	a.threads |= other.threads
	for _, t := range other.overflow {
		a.addThread(t)
	}
	for _, part := range other.counters() {
		for _, c := range part {
			a.addSite(c.site, c.store, c.n)
		}
	}
	a.Total += other.Total
}

// Threads returns how many distinct threads accessed the address.
func (a *AddrStats) Threads() int { return bits.OnesCount64(a.threads) + len(a.overflow) }

// Shared reports whether the address was accessed by more than one thread
// (the "shared data access" selection principle).
func (a *AddrStats) Shared() bool { return a.Threads() > 1 }

// Loads returns how many loads site s made of the address.
func (a *AddrStats) Loads(s site.ID) int { return a.count(s, false) }

// Stores returns how many stores site s made to the address.
func (a *AddrStats) Stores(s site.ID) int { return a.count(s, true) }

func (a *AddrStats) addThread(t pmem.ThreadID) {
	if uint32(t) < 64 {
		a.threads |= 1 << uint32(t)
	} else if !slices.Contains(a.overflow, t) {
		a.overflow = append(a.overflow, t)
	}
}

// counters returns the site counters in two parts: inline, then spilled.
func (a *AddrStats) counters() [2][]siteCount {
	return [2][]siteCount{a.inline[:a.nInline], a.spill}
}

func (a *AddrStats) addSite(s site.ID, isStore bool, n int) {
	if c := a.find(s, isStore); c != nil {
		c.n += n
		return
	}
	c := siteCount{site: s, store: isStore, n: n}
	if a.nInline < statsInline {
		a.inline[a.nInline] = c
		a.nInline++
		return
	}
	a.spill = append(a.spill, c)
}

func (a *AddrStats) find(s site.ID, isStore bool) *siteCount {
	for i := range a.inline[:a.nInline] {
		if c := &a.inline[i]; c.site == s && c.store == isStore {
			return c
		}
	}
	for i := range a.spill {
		if c := &a.spill[i]; c.site == s && c.store == isStore {
			return c
		}
	}
	return nil
}

func (a *AddrStats) count(s site.ID, isStore bool) int {
	if c := a.find(s, isStore); c != nil {
		return c.n
	}
	return 0
}

// Entry is one priority-queue element: a PM address with the load and store
// instructions that access it. The loads become sync points (cond_wait is
// injected before them); the stores trigger cond_signal.
type Entry struct {
	Addr       pmem.Addr
	LoadSites  map[site.ID]struct{}
	StoreSites map[site.ID]struct{}
	Priority   int
}

// Key identifies the entry for the per-seed skip bookkeeping.
func (e *Entry) Key() pmem.Addr { return e.Addr }

// Describe renders the entry for span attribution: the address with its
// load/store site counts and priority.
func (e *Entry) Describe() string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf("%#x loads=%d stores=%d prio=%d",
		uint64(e.Addr), len(e.LoadSites), len(e.StoreSites), e.Priority)
}

// Queue is the priority queue of shared PM data access instructions grouped
// by address. Entries are ordered by access frequency (hot shared data
// first) and popped at most once per seed. All methods are safe for
// concurrent use: with equivalence pruning a worker keeps popping past
// pruned entries while another may still be reprioritizing, so the cursor
// and the entry order share one mutex.
type Queue struct {
	mu      sync.Mutex
	entries []*Entry
	next    int
}

// BuildQueue constructs a queue from per-address statistics. Only addresses
// matching the paper's three selection principles are included: PM accesses,
// shared across threads, prioritized by access frequency. Entries also need
// at least one load and one store (otherwise no read-after-write interleaving
// exists to force).
func BuildQueue(stats map[pmem.Addr]*AddrStats) *Queue {
	q := &Queue{}
	for addr, st := range stats {
		if !st.Shared() {
			continue
		}
		var loads, stores int
		for _, part := range st.counters() {
			for _, c := range part {
				if c.store {
					stores++
				} else {
					loads++
				}
			}
		}
		if loads == 0 || stores == 0 {
			continue
		}
		e := &Entry{
			Addr:       addr,
			LoadSites:  make(map[site.ID]struct{}, loads),
			StoreSites: make(map[site.ID]struct{}, stores),
			Priority:   st.Total,
		}
		for _, part := range st.counters() {
			for _, c := range part {
				if c.store {
					e.StoreSites[c.site] = struct{}{}
				} else {
					e.LoadSites[c.site] = struct{}{}
				}
			}
		}
		q.entries = append(q.entries, e)
	}
	sort.Slice(q.entries, func(i, j int) bool {
		if q.entries[i].Priority != q.entries[j].Priority {
			return q.entries[i].Priority > q.entries[j].Priority
		}
		return q.entries[i].Addr < q.entries[j].Addr
	})
	return q
}

// Reprioritize adjusts each entry's priority by boost and re-sorts with the
// BuildQueue comparator (priority descending, address ascending). It is a
// no-op once popping has started: re-ordering behind the cursor would make
// entries repeat or vanish.
func (q *Queue) Reprioritize(boost func(*Entry) int) {
	if boost == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next > 0 {
		return
	}
	for _, e := range q.entries {
		e.Priority += boost(e)
	}
	sort.Slice(q.entries, func(i, j int) bool {
		if q.entries[i].Priority != q.entries[j].Priority {
			return q.entries[i].Priority > q.entries[j].Priority
		}
		return q.entries[i].Addr < q.entries[j].Addr
	})
}

// Len returns the number of entries in the queue.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries)
}

// Remaining returns how many entries have not been popped yet.
func (q *Queue) Remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.entries) - q.next
}

// Pop returns the next unexplored entry, or nil when the queue is exhausted.
func (q *Queue) Pop() *Entry {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.next >= len(q.entries) {
		return nil
	}
	e := q.entries[q.next]
	q.next++
	return e
}
