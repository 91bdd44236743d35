package taint

import (
	"cmp"
	"slices"
	"sync"
)

// Label identifies a set of taint sources. The zero label is the empty set.
type Label uint32

// None is the empty taint label.
const None Label = 0

// Event describes a taint source: one PM inter- or intra-thread inconsistency
// candidate, i.e. one dynamic read of non-persisted data.
type Event struct {
	// Addr is the word-aligned PM offset that was read while dirty.
	Addr uint64
	// Epoch is the store epoch observed at the read; the event is only
	// actionable while the word is still dirty at this epoch.
	Epoch uint32
	// WriteSite and ReadSite are the instruction sites of the dirty store
	// and of the read.
	WriteSite uint32
	ReadSite  uint32
	// Writer and Reader are the thread IDs involved. Writer != Reader
	// marks an inter-thread candidate, Writer == Reader an intra-thread
	// candidate.
	Writer int32
	Reader int32
	// Seq is a per-table sequence number, for stable report ordering.
	Seq uint64
}

// Inter reports whether the event crosses threads.
func (e Event) Inter() bool { return e.Writer != e.Reader }

type node struct {
	// leaf event, valid when l == r == 0
	ev Event
	// union children, valid when l or r nonzero
	l, r Label
}

// Table allocates labels and resolves them back to event sets. It is safe
// for concurrent use.
type Table struct {
	mu     sync.Mutex
	nodes  []node // index 0 unused (Label 0 = None)
	unions map[[2]Label]Label
	seq    uint64

	// mark and gen are the visited set of AppendEvents: label l was visited
	// by the current walk iff mark[l] == gen, so bumping gen empties the
	// set. stack is the walk's reusable work list.
	mark  []uint32
	gen   uint32
	stack []Label
}

// NewTable creates an empty label table.
func NewTable() *Table {
	return &Table{
		nodes:  make([]node, 1),
		unions: make(map[[2]Label]Label),
	}
}

// NewLeaf creates a fresh label for a single candidate event.
func (t *Table) NewLeaf(ev Event) Label {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	t.nodes = append(t.nodes, node{ev: ev})
	return Label(len(t.nodes) - 1)
}

// Union returns a label representing the union of a and b. Unions are
// memoised: Union(a, b) == Union(b, a) and repeated calls return the same
// label. Union with None returns the other label unchanged.
func (t *Table) Union(a, b Label) Label {
	if a == None {
		return b
	}
	if b == None || a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	key := [2]Label{a, b}
	if l, ok := t.unions[key]; ok {
		return l
	}
	t.nodes = append(t.nodes, node{l: a, r: b})
	l := Label(len(t.nodes) - 1)
	t.unions[key] = l
	return l
}

// UnionAll folds Union over a list of labels.
func (t *Table) UnionAll(labels []Label) Label {
	out := None
	for _, l := range labels {
		out = t.Union(out, l)
	}
	return out
}

// Events expands a label into its set of leaf events. The result is
// deduplicated and ordered by event sequence number.
func (t *Table) Events(l Label) []Event { return t.AppendEvents(nil, l) }

// AppendEvents appends the leaf events of l to dst, deduplicated and ordered
// by event sequence number, and returns the extended slice. The walk reuses
// the table's own visited set and stack, so expanding into a dst with room
// to spare allocates nothing — the store checker does this on every tainted
// PM store.
func (t *Table) AppendEvents(dst []Event, l Label) []Event {
	if l == None {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.nodes); len(t.mark) < n {
		t.mark = append(t.mark, make([]uint32, n-len(t.mark))...)
	}
	t.gen++
	if t.gen == 0 {
		clear(t.mark)
		t.gen = 1
	}
	start := len(dst)
	stack := append(t.stack[:0], l)
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if l == None || int(l) >= len(t.nodes) || t.mark[l] == t.gen {
			continue
		}
		t.mark[l] = t.gen
		n := &t.nodes[l]
		if n.l == None && n.r == None {
			dst = append(dst, n.ev)
			continue
		}
		stack = append(stack, n.r, n.l)
	}
	t.stack = stack
	// Walk order depends on the union shape; sequence numbers are unique
	// per table, so sorting by them gives deterministic reports.
	slices.SortFunc(dst[start:], func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) })
	return dst
}

// Has reports whether the label's event set contains an event with the given
// write site.
func (t *Table) Has(l Label, writeSite uint32) bool {
	for _, ev := range t.Events(l) {
		if ev.WriteSite == writeSite {
			return true
		}
	}
	return false
}

// Size returns the number of allocated labels (excluding None).
func (t *Table) Size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.nodes) - 1
}
