package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// Kind classifies a detected inconsistency.
type Kind int

const (
	// KindInterCandidate is a cross-thread read of non-persisted data.
	KindInterCandidate Kind = iota
	// KindIntraCandidate is a same-thread read of non-persisted data.
	KindIntraCandidate
	// KindInter is a PM Inter-thread Inconsistency: a durable side effect
	// based on non-persisted data written by another thread.
	KindInter
	// KindIntra is the same-thread variant.
	KindIntra
	// KindSync is a PM Synchronization Inconsistency.
	KindSync
)

// String returns the paper's abbreviation for the kind.
func (k Kind) String() string {
	switch k {
	case KindInterCandidate:
		return "Inter-Cand"
	case KindIntraCandidate:
		return "Intra-Cand"
	case KindInter:
		return "Inter"
	case KindIntra:
		return "Intra"
	case KindSync:
		return "Sync"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FlowKind distinguishes the two data flows that make a PM write a durable
// side effect (paper §4.3).
type FlowKind int

const (
	// FlowValue: the contents written to PM derive from non-persisted
	// data (unexpected data contents after a crash).
	FlowValue FlowKind = iota
	// FlowAddress: the target address of the PM store derives from
	// non-persisted data (inconsistent data layout, potential data loss —
	// the P-CLHT example).
	FlowAddress
)

func (f FlowKind) String() string {
	if f == FlowAddress {
		return "address"
	}
	return "value"
}

// Candidate records one deduplicated inconsistency candidate: a (write site,
// read site) pair observed reading non-persisted data.
type Candidate struct {
	Event taint.Event
	Count int // dynamic occurrences
}

// Inter reports whether the candidate crosses threads.
func (c *Candidate) Inter() bool { return c.Event.Inter() }

// Inconsistency records one confirmed PM inter- or intra-thread
// inconsistency: a durable side effect based on non-persisted data.
type Inconsistency struct {
	Kind Kind
	// Event is the dirty-read event the side effect depends on.
	Event taint.Event
	// StoreSite and StoreThread identify the durable side effect.
	StoreSite   site.ID
	StoreThread pmem.ThreadID
	// SideEffect is the byte range the side effect wrote; post-failure
	// validation checks whether recovery overwrites it.
	SideEffect pmem.Range
	// DirtyRange is the still-non-persisted range the side effect depends
	// on; the adversarial crash image persists SideEffect but not this.
	DirtyRange pmem.Range
	// Flow tells whether the dependency flows through the stored value or
	// the store address.
	Flow FlowKind
	// External marks a durable side effect outside the pool — a disk
	// write or data shared with another program (Definition 2 lists these
	// alongside PM writes). External effects cannot be overwritten by
	// recovery, so validation reports them as bugs unless whitelisted.
	External bool
	// Stack is the call stack at the side effect, for bug reports and
	// whitelist matching.
	Stack []string
	// Lineage is the full taint expansion of the label that made the store
	// a durable side effect: every dirty-read event the stored value (or
	// address) transitively derives from. Forensic artifacts persist it so
	// a triager can follow the data flow from the original non-persisted
	// store to the side effect without re-running the campaign.
	Lineage []taint.Event
	// Trace is the tail of the PM access trace at detection time — the
	// interleaving evidence attached to the report.
	Trace []string
	// Input is the encoded program input (operation sequence) of the
	// campaign that found the inconsistency (§4.1 step 6: reports carry
	// "corresponding program inputs").
	Input string
	Count int
}

// Key returns the dedup key: inconsistencies with the same dirty write site
// and side-effect site are one report.
func (in *Inconsistency) Key() [3]uint32 {
	return inconKey(in.Event.WriteSite, in.StoreSite, in.Kind)
}

func inconKey(writeSite uint32, storeSite site.ID, kind Kind) [3]uint32 {
	k := uint32(0)
	if kind == KindIntra {
		k = 1
	}
	return [3]uint32{writeSite, uint32(storeSite), k}
}

// SyncVar is a programmer annotation for a persistent synchronization
// variable (paper §5): its pool offset, size and the value it must be
// re-initialized to after recovery.
type SyncVar struct {
	Name    string
	Addr    pmem.Addr
	Size    uint64
	InitVal uint64
}

// SyncInconsistency records one update of an annotated synchronization
// variable in PM. Updates are deduplicated by (variable name, update site):
// the paper checks "each type of update operation for only one time", and
// annotations share a name across instances of the same variable type (e.g.
// every bucket lock of a hash table is the one "bucket-lock" annotation).
type SyncInconsistency struct {
	Var SyncVar
	// Addr is the concrete updated address (one instance of the variable
	// type); post-failure validation checks this address against the
	// annotation's expected initial value.
	Addr   pmem.Addr
	Site   site.ID
	Thread pmem.ThreadID
	OldVal uint64
	NewVal uint64
	Stack  []string
	// Input is the encoded program input of the finding campaign.
	Input string
	Count int
}

// overlaps reports whether the annotation shares a byte with [addr, addr+size).
func (v *SyncVar) overlaps(addr pmem.Addr, size uint64) bool {
	return addr+size > v.Addr && addr < v.Addr+v.Size
}

// DedupKey returns the (variable, site) key the result database dedups by.
func (si *SyncInconsistency) DedupKey() string {
	return fmt.Sprintf("%s@%d", si.Var.Name, si.Site)
}

// Detector implements the runtime PM checkers for one fuzz campaign.
type Detector struct {
	mu     sync.Mutex
	labels *taint.Table

	// syncVars lists the distinct annotations in registration order;
	// syncSet makes re-registering an identical annotation a no-op (CCEH's
	// recovery and P-CLHT's resize re-annotate every exec). syncWord maps
	// each annotated word to the index of the first registration covering
	// it, so a store finds its variable with one lookup per word instead
	// of a scan.
	syncVars []SyncVar
	syncSet  map[SyncVar]struct{}
	syncWord map[pmem.Addr]int32
	// hasSync mirrors len(syncVars) > 0; the store hook polls it on every
	// store, so it is atomic instead of taking mu.
	hasSync atomic.Bool

	candidates map[[2]uint32]*Candidate // (writeSite, readSite)
	candList   [][2]uint32

	incons   map[[3]uint32]*Inconsistency
	inconOrd [][3]uint32

	syncSeen map[syncKey]*SyncInconsistency
	syncOrd  []syncKey

	redundant map[uint32]*RedundantStore
	redOrd    []uint32

	redFlush    map[uint32]*RedundantFlush
	redFlushOrd []uint32
}

// syncKey identifies a synchronization inconsistency: one update site of one
// annotated variable type.
type syncKey struct {
	name string
	site site.ID
}

// RedundantStore records a PM store site observed writing back the value the
// word already held. It is an example of the additional checkers the PMRace
// framework admits (§4.3 discusses checking unnecessary persistency
// operations); the paper's Bug 4 in P-CLHT — unnecessary bucket writes — was
// confirmed from such a report.
type RedundantStore struct {
	Site  site.ID
	Addr  pmem.Addr
	Count int
}

// NewDetector creates a detector sharing the given taint label table with the
// runtime.
func NewDetector(labels *taint.Table) *Detector {
	return &Detector{
		labels:     labels,
		candidates: make(map[[2]uint32]*Candidate),
		incons:     make(map[[3]uint32]*Inconsistency),
		syncSet:    make(map[SyncVar]struct{}),
		syncWord:   make(map[pmem.Addr]int32),
		syncSeen:   make(map[syncKey]*SyncInconsistency),
		redundant:  make(map[uint32]*RedundantStore),
	}
}

// OnRedundantStore records that the store at site s wrote a value identical
// to the word's current contents. The runtime filters out zero-over-zero
// writes (initialization noise) before calling.
func (d *Detector) OnRedundantStore(s site.ID, addr pmem.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if r, ok := d.redundant[uint32(s)]; ok {
		r.Count++
		return
	}
	d.redundant[uint32(s)] = &RedundantStore{Site: s, Addr: addr, Count: 1}
	d.redOrd = append(d.redOrd, uint32(s))
}

// RedundantStores returns the recorded redundant-store sites in detection
// order.
func (d *Detector) RedundantStores() []*RedundantStore {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*RedundantStore, 0, len(d.redOrd))
	for _, k := range d.redOrd {
		out = append(out, d.redundant[k])
	}
	return out
}

// Labels returns the detector's taint table.
func (d *Detector) Labels() *taint.Table { return d.labels }

// AnnotateSyncVar registers a persistent synchronization variable. It
// corresponds to the pm_sync_var_hint(size, init_val) annotation macro.
// Registering an identical annotation again is a no-op. Where annotations
// overlap, a store is attributed to the first one registered.
func (d *Detector) AnnotateSyncVar(v SyncVar) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.syncSet[v]; dup {
		return
	}
	d.syncSet[v] = struct{}{}
	idx := int32(len(d.syncVars))
	d.syncVars = append(d.syncVars, v)
	for w := v.Addr &^ (pmem.WordSize - 1); w < v.Addr+v.Size; w += pmem.WordSize {
		if _, taken := d.syncWord[w]; !taken {
			d.syncWord[w] = idx
		}
	}
	d.hasSync.Store(true)
}

// syncVarAt returns the index of the first registered annotation sharing a
// byte with [addr, addr+size), or -1. The caller holds mu.
func (d *Detector) syncVarAt(addr pmem.Addr, size uint64) int {
	first := -1
	for w := addr &^ (pmem.WordSize - 1); w < addr+size; w += pmem.WordSize {
		if i, ok := d.syncWord[w]; ok && (first < 0 || int(i) < first) {
			first = int(i)
		}
	}
	if first < 0 {
		return -1
	}
	if d.syncVars[first].overlaps(addr, size) {
		return first
	}
	// Only annotations narrower than a word get here: the word's first
	// registration misses the stored bytes, but a later one may not.
	for i := range d.syncVars {
		if d.syncVars[i].overlaps(addr, size) {
			return i
		}
	}
	return -1
}

// HasSyncVars cheaply reports whether any annotation is registered.
func (d *Detector) HasSyncVars() bool {
	return d.hasSync.Load()
}

// SyncVars returns the registered annotations.
func (d *Detector) SyncVars() []SyncVar {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]SyncVar(nil), d.syncVars...)
}

// OnDirtyRead records an inconsistency candidate: thread ev.Reader read the
// word at ev.Addr while it was dirty from a store by ev.Writer at
// ev.WriteSite. It returns a taint label for the loaded value so the runtime
// can propagate the dependency.
func (d *Detector) OnDirtyRead(ev taint.Event) taint.Label {
	d.mu.Lock()
	key := [2]uint32{ev.WriteSite, ev.ReadSite}
	if c, ok := d.candidates[key]; ok {
		c.Count++
	} else {
		d.candidates[key] = &Candidate{Event: ev, Count: 1}
		d.candList = append(d.candList, key)
	}
	d.mu.Unlock()
	return d.labels.NewLeaf(ev)
}

// StoreCheck is the input to OnStore: one instrumented PM store with the
// taint labels of its value and of its target address computation.
type StoreCheck struct {
	Thread  pmem.ThreadID
	Site    site.ID
	Addr    pmem.Addr
	Size    uint64
	ValLab  taint.Label
	AddrLab taint.Label
	// External marks a non-PM durable effect (see Inconsistency.External).
	External bool
	// Stack returns the call stack at the store. OnStore calls it at most
	// once, and only when the store records a new inconsistency: duplicate
	// and stale events, the common case, never pay for a stack walk.
	Stack      func() []string
	StillDirty func(addr pmem.Addr, epoch uint32) bool
}

// OnStore checks a PM store for durable side effects based on non-persisted
// data. For every taint event reachable from the value or address label, if
// the originating word is still dirty at the recorded epoch, an inter- or
// intra-thread inconsistency is recorded. Events whose dirty word lies
// inside the stored range itself are skipped: overwriting the dependent
// non-persisted data is not a side effect (Definition 2). It returns the
// newly recorded inconsistencies (empty when all were duplicates or stale),
// each complete with its stack and lineage before any other goroutine can
// see it.
func (d *Detector) OnStore(sc StoreCheck) []*Inconsistency {
	var (
		fresh []*Inconsistency // not yet recorded when checked
		buf   [32]taint.Event  // label expansion; longer lineages spill to the heap
	)
	for _, pair := range [2]struct {
		lab  taint.Label
		flow FlowKind
	}{{sc.ValLab, FlowValue}, {sc.AddrLab, FlowAddress}} {
		if pair.lab == taint.None {
			continue
		}
		events := d.labels.AppendEvents(buf[:0], pair.lab)
		var lineage []taint.Event // events' copy, made for the first new finding
		for _, ev := range events {
			// Skip self-overwrite of the dependent data (external
			// effects overwrite nothing).
			if !sc.External && ev.Addr >= sc.Addr&^7 && ev.Addr < sc.Addr+sc.Size {
				continue
			}
			if sc.StillDirty != nil && !sc.StillDirty(ev.Addr, ev.Epoch) {
				continue
			}
			kind := KindIntra
			if ev.Inter() {
				kind = KindInter
			}
			if d.countIfRecorded(inconKey(ev.WriteSite, sc.Site, kind)) {
				continue
			}
			if lineage == nil {
				lineage = slices.Clone(events)
			}
			fresh = append(fresh, &Inconsistency{
				Kind:        kind,
				Event:       ev,
				StoreSite:   sc.Site,
				StoreThread: sc.Thread,
				External:    sc.External,
				SideEffect:  pmem.Range{Off: sc.Addr, Len: sc.Size},
				DirtyRange:  pmem.Range{Off: ev.Addr, Len: pmem.WordSize},
				Flow:        pair.flow,
				Lineage:     lineage,
				Count:       1,
			})
		}
	}
	if len(fresh) == 0 {
		return nil
	}
	var stack []string
	if sc.Stack != nil {
		stack = sc.Stack()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	found := fresh[:0]
	for _, in := range fresh {
		key := in.Key()
		if prev, ok := d.incons[key]; ok {
			// Recorded since the check: by a concurrent store, or by
			// an earlier event of this one with the same key.
			prev.Count++
			continue
		}
		in.Stack = stack
		d.incons[key] = in
		d.inconOrd = append(d.inconOrd, key)
		found = append(found, in)
	}
	return found
}

// countIfRecorded counts one more occurrence of the inconsistency with the
// given key and reports true when it is already recorded.
func (d *Detector) countIfRecorded(key [3]uint32) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, ok := d.incons[key]
	if ok {
		prev.Count++
	}
	return ok
}

// OnSyncStore checks whether a store touches an annotated synchronization
// variable and records a PM Synchronization Inconsistency if so. Only value
// changes count (the checker watches "the changes of user-annotated
// synchronization variables", §4.1); each (variable, site) pair is recorded
// once. stack, when non-nil, is called only for a pair not yet recorded, and
// its result is set before the inconsistency is published. It returns the
// inconsistency when newly recorded.
func (d *Detector) OnSyncStore(t pmem.ThreadID, s site.ID, addr pmem.Addr, size uint64, oldVal, newVal uint64, stack func() []string) *SyncInconsistency {
	if oldVal == newVal {
		return nil
	}
	v, ok := d.unrecordedSyncVar(s, addr, size)
	if !ok {
		return nil
	}
	si := &SyncInconsistency{
		Var:    v,
		Addr:   v.Addr,
		Site:   s,
		Thread: t,
		OldVal: oldVal,
		NewVal: newVal,
		Count:  1,
	}
	if stack != nil {
		si.Stack = stack()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	key := syncKey{v.Name, s}
	if prev, ok := d.syncSeen[key]; ok {
		prev.Count++ // recorded by a concurrent store since the check
		return nil
	}
	d.syncSeen[key] = si
	d.syncOrd = append(d.syncOrd, key)
	return si
}

// unrecordedSyncVar returns the annotation a store to [addr, addr+size) at
// site s updates. ok is false when no annotation covers the range, or when
// the (variable, site) pair is already recorded; that occurrence is counted.
func (d *Detector) unrecordedSyncVar(s site.ID, addr pmem.Addr, size uint64) (v SyncVar, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i := d.syncVarAt(addr, size)
	if i < 0 {
		return SyncVar{}, false
	}
	if prev, seen := d.syncSeen[syncKey{d.syncVars[i].Name, s}]; seen {
		prev.Count++
		return SyncVar{}, false
	}
	return d.syncVars[i], true
}

// Candidates returns all recorded candidates in detection order.
func (d *Detector) Candidates() []*Candidate {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Candidate, 0, len(d.candList))
	for _, k := range d.candList {
		out = append(out, d.candidates[k])
	}
	return out
}

// Inconsistencies returns all recorded inter-/intra-thread inconsistencies in
// detection order.
func (d *Detector) Inconsistencies() []*Inconsistency {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*Inconsistency, 0, len(d.inconOrd))
	for _, k := range d.inconOrd {
		out = append(out, d.incons[k])
	}
	return out
}

// SyncInconsistencies returns all recorded synchronization inconsistencies in
// detection order.
func (d *Detector) SyncInconsistencies() []*SyncInconsistency {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*SyncInconsistency, 0, len(d.syncOrd))
	for _, k := range d.syncOrd {
		out = append(out, d.syncSeen[k])
	}
	return out
}

// CandidateCounts returns the numbers of inter- and intra-thread candidates.
func (d *Detector) CandidateCounts() (inter, intra int) {
	for _, c := range d.Candidates() {
		if c.Inter() {
			inter++
		} else {
			intra++
		}
	}
	return inter, intra
}
