package core

import (
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

func newDet() *Detector { return NewDetector(taint.NewTable()) }

func interEvent(writeSite, readSite uint32, addr uint64) taint.Event {
	return taint.Event{Addr: addr, Epoch: 1, WriteSite: writeSite, ReadSite: readSite, Writer: 1, Reader: 2}
}

func intraEvent(writeSite, readSite uint32, addr uint64) taint.Event {
	return taint.Event{Addr: addr, Epoch: 1, WriteSite: writeSite, ReadSite: readSite, Writer: 3, Reader: 3}
}

func alwaysDirty(pmem.Addr, uint32) bool { return true }
func neverDirty(pmem.Addr, uint32) bool  { return false }

func TestOnDirtyReadRecordsCandidate(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	if lab == taint.None {
		t.Fatalf("dirty read must return a taint label")
	}
	cands := d.Candidates()
	if len(cands) != 1 || !cands[0].Inter() || cands[0].Count != 1 {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestCandidatesDeduplicateBySitePair(t *testing.T) {
	d := newDet()
	d.OnDirtyRead(interEvent(10, 20, 64))
	d.OnDirtyRead(interEvent(10, 20, 128)) // same site pair, different address
	d.OnDirtyRead(interEvent(10, 21, 64))  // different read site
	cands := d.Candidates()
	if len(cands) != 2 {
		t.Fatalf("got %d candidates, want 2", len(cands))
	}
	if cands[0].Count != 2 {
		t.Fatalf("first candidate count = %d, want 2", cands[0].Count)
	}
}

func TestCandidateCounts(t *testing.T) {
	d := newDet()
	d.OnDirtyRead(interEvent(1, 2, 64))
	d.OnDirtyRead(intraEvent(3, 4, 128))
	d.OnDirtyRead(intraEvent(5, 6, 192))
	inter, intra := d.CandidateCounts()
	if inter != 1 || intra != 2 {
		t.Fatalf("counts = %d inter %d intra, want 1 and 2", inter, intra)
	}
}

func TestOnStoreConfirmsInterInconsistency(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{
		Thread: 2, Site: 99, Addr: 256, Size: 8,
		ValLab: lab, StillDirty: alwaysDirty,
	})
	if len(found) != 1 {
		t.Fatalf("found %d inconsistencies, want 1", len(found))
	}
	in := found[0]
	if in.Kind != KindInter || in.Flow != FlowValue {
		t.Fatalf("kind=%v flow=%v", in.Kind, in.Flow)
	}
	if in.SideEffect != (pmem.Range{Off: 256, Len: 8}) {
		t.Fatalf("side effect = %+v", in.SideEffect)
	}
	if in.DirtyRange.Off != 64 {
		t.Fatalf("dirty range = %+v", in.DirtyRange)
	}
}

func TestOnStoreAddressFlow(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{
		Thread: 2, Site: 99, Addr: 512, Size: 16,
		AddrLab: lab, StillDirty: alwaysDirty,
	})
	if len(found) != 1 || found[0].Flow != FlowAddress {
		t.Fatalf("found = %+v, want one address-flow inconsistency", found)
	}
}

func TestOnStoreIntraClassification(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(intraEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{Thread: 3, Site: 99, Addr: 256, Size: 8, ValLab: lab, StillDirty: alwaysDirty})
	if len(found) != 1 || found[0].Kind != KindIntra {
		t.Fatalf("found = %+v, want intra", found)
	}
}

func TestOnStoreSkipsPersistedEvents(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab, StillDirty: neverDirty})
	if len(found) != 0 {
		t.Fatalf("persisted dependency must not be an inconsistency, got %+v", found)
	}
	if len(d.Inconsistencies()) != 0 {
		t.Fatalf("nothing must be recorded")
	}
}

func TestOnStoreSkipsSelfOverwrite(t *testing.T) {
	d := newDet()
	lab := d.OnDirtyRead(interEvent(10, 20, 64))
	// Storing over the dependent word itself is not a side effect.
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 64, Size: 8, ValLab: lab, StillDirty: alwaysDirty})
	if len(found) != 0 {
		t.Fatalf("self-overwrite must be skipped, got %+v", found)
	}
}

func TestOnStoreUntaintedIsNoop(t *testing.T) {
	d := newDet()
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 64, Size: 8, StillDirty: alwaysDirty})
	if len(found) != 0 {
		t.Fatalf("untainted store must not report, got %+v", found)
	}
}

func TestInconsistencyDeduplication(t *testing.T) {
	d := newDet()
	lab1 := d.OnDirtyRead(interEvent(10, 20, 64))
	d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab1, StillDirty: alwaysDirty})
	lab2 := d.OnDirtyRead(interEvent(10, 20, 64))
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab2, StillDirty: alwaysDirty})
	if len(found) != 0 {
		t.Fatalf("duplicate must not be re-reported")
	}
	ins := d.Inconsistencies()
	if len(ins) != 1 || ins[0].Count != 2 {
		t.Fatalf("inconsistencies = %+v", ins)
	}
}

func TestMultipleEventsInOneLabel(t *testing.T) {
	d := newDet()
	a := d.OnDirtyRead(interEvent(10, 20, 64))
	b := d.OnDirtyRead(interEvent(11, 21, 128))
	u := d.Labels().Union(a, b)
	found := d.OnStore(StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: u, StillDirty: alwaysDirty})
	if len(found) != 2 {
		t.Fatalf("found %d, want 2 (one per source event)", len(found))
	}
}

func TestSyncVarAnnotationAndDetection(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "bucket-lock", Addr: 128, Size: 8, InitVal: 0})
	si := d.OnSyncStore(1, 50, 128, 8, 0, 1, nil)
	if si == nil || si.Var.Name != "bucket-lock" || si.NewVal != 1 {
		t.Fatalf("sync inconsistency = %+v", si)
	}
	// Same site again: counted, not re-reported.
	if d.OnSyncStore(1, 50, 128, 8, 1, 0, nil) != nil {
		t.Fatalf("same update site must be reported once")
	}
	sis := d.SyncInconsistencies()
	if len(sis) != 1 || sis[0].Count != 2 {
		t.Fatalf("syncs = %+v", sis)
	}
	// Different site on the same var: new report.
	if d.OnSyncStore(2, 51, 128, 8, 0, 1, nil) == nil {
		t.Fatalf("different update site must be reported")
	}
}

func TestSyncStoreOutsideAnnotationIgnored(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "lock", Addr: 128, Size: 8})
	if d.OnSyncStore(1, 50, 136, 8, 0, 1, nil) != nil {
		t.Fatalf("store outside annotated range must be ignored")
	}
	if d.OnSyncStore(1, 50, 120, 8, 0, 1, nil) != nil {
		t.Fatalf("store before annotated range must be ignored")
	}
}

func TestSyncStoreOverlapDetected(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "lock", Addr: 128, Size: 16})
	si := d.OnSyncStore(1, 50, 136, 8, 0, 1, nil)
	if si == nil {
		t.Fatalf("store overlapping annotated range must be detected")
	}
	// The second word maps back to the annotation, not to its own word.
	if si.Var.Name != "lock" || si.Addr != 128 {
		t.Fatalf("second-word store reported %+v", si)
	}
	if d.OnSyncStore(1, 51, 144, 8, 0, 1, nil) != nil {
		t.Fatalf("store past a Size 16 annotation must be ignored")
	}
	// An unaligned store straddling into the annotation overlaps it.
	if si := d.OnSyncStore(1, 52, 124, 8, 0, 1, nil); si == nil || si.Var.Name != "lock" {
		t.Fatalf("straddling store = %+v", si)
	}
}

func TestSyncVarReRegistrationIsNoOp(t *testing.T) {
	d := newDet()
	lock := SyncVar{Name: "segment-lock", Addr: 128, Size: 8}
	d.AnnotateSyncVar(lock)
	d.AnnotateSyncVar(SyncVar{Name: "dir-lock", Addr: 64, Size: 8})
	if d.OnSyncStore(1, 50, 128, 8, 0, 1, nil) == nil {
		t.Fatalf("first store must be reported")
	}
	before := d.SyncVars()
	d.AnnotateSyncVar(lock) // recovery re-annotates every lock
	d.AnnotateSyncVar(lock)
	if got := d.SyncVars(); len(got) != len(before) || got[0] != before[0] || got[1] != before[1] {
		t.Fatalf("SyncVars after re-registration = %+v, want %+v", got, before)
	}
	if d.OnSyncStore(1, 50, 128, 8, 1, 0, nil) != nil {
		t.Fatalf("re-registration must not reset the (variable, site) dedup")
	}
	if si := d.OnSyncStore(1, 51, 128, 8, 0, 1, nil); si == nil || si.Var != lock {
		t.Fatalf("new site after re-registration = %+v", si)
	}
	if sis := d.SyncInconsistencies(); len(sis) != 2 || sis[0].Count != 2 {
		t.Fatalf("syncs = %+v", sis)
	}
	// A differing annotation at the same address is a new registration.
	d.AnnotateSyncVar(SyncVar{Name: "segment-lock", Addr: 128, Size: 8, InitVal: 1})
	if got := d.SyncVars(); len(got) != 3 {
		t.Fatalf("differing annotation must register, SyncVars = %+v", got)
	}
}

func TestSyncVarOverlapFirstRegistrationWins(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "first", Addr: 128, Size: 8})
	d.AnnotateSyncVar(SyncVar{Name: "second", Addr: 128, Size: 16})
	if si := d.OnSyncStore(1, 50, 128, 8, 0, 1, nil); si == nil || si.Var.Name != "first" {
		t.Fatalf("shared word reported %+v, want the first registration", si)
	}
	// The second word is covered by the later annotation alone.
	if si := d.OnSyncStore(1, 50, 136, 8, 0, 1, nil); si == nil || si.Var.Name != "second" {
		t.Fatalf("second word reported %+v", si)
	}
	// A store covering both words matches the earliest registration.
	if si := d.OnSyncStore(1, 51, 132, 8, 0, 1, nil); si == nil || si.Var.Name != "first" {
		t.Fatalf("straddling store reported %+v", si)
	}
}

func TestSyncVarSubWordAnnotations(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "lo", Addr: 128, Size: 4})
	d.AnnotateSyncVar(SyncVar{Name: "hi", Addr: 132, Size: 4})
	// Both annotations share a word; the bytes decide.
	if si := d.OnSyncStore(1, 50, 132, 4, 0, 1, nil); si == nil || si.Var.Name != "hi" {
		t.Fatalf("upper half reported %+v", si)
	}
	if si := d.OnSyncStore(1, 50, 128, 4, 0, 1, nil); si == nil || si.Var.Name != "lo" {
		t.Fatalf("lower half reported %+v", si)
	}
}

func TestSyncStackCapturedOnlyForNewPairs(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "lock", Addr: 128, Size: 8})
	calls := 0
	stack := func() []string { calls++; return []string{"f.go:1 pkg.f"} }
	si := d.OnSyncStore(1, 50, 128, 8, 0, 1, stack)
	if si == nil || len(si.Stack) != 1 {
		t.Fatalf("new pair must carry the stack: %+v", si)
	}
	d.OnSyncStore(1, 50, 128, 8, 1, 0, stack) // duplicate pair
	d.OnSyncStore(1, 50, 128, 8, 0, 0, stack) // no value change
	d.OnSyncStore(1, 50, 256, 8, 0, 1, stack) // not annotated
	if calls != 1 {
		t.Fatalf("stack captured %d times, want 1", calls)
	}
}

func TestStoreStackCapturedOnlyForNewFindings(t *testing.T) {
	d := newDet()
	a := d.OnDirtyRead(interEvent(10, 20, 64))
	b := d.OnDirtyRead(interEvent(11, 21, 128))
	lab := d.Labels().Union(a, b)
	calls := 0
	sc := StoreCheck{Thread: 2, Site: 99, Addr: 256, Size: 8, ValLab: lab, StillDirty: alwaysDirty,
		Stack: func() []string { calls++; return []string{"f.go:1 pkg.f"} }}
	found := d.OnStore(sc)
	if len(found) != 2 || calls != 1 {
		t.Fatalf("two new findings: found %d, stack calls %d, want 2 and 1", len(found), calls)
	}
	if len(found[0].Stack) != 1 || len(found[1].Lineage) != 2 {
		t.Fatalf("findings must be complete: %+v", found[1])
	}
	if len(d.OnStore(sc)) != 0 || calls != 1 {
		t.Fatalf("duplicate store captured a stack (%d calls)", calls)
	}
	sc.StillDirty = neverDirty
	if len(d.OnStore(sc)) != 0 || calls != 1 {
		t.Fatalf("stale store captured a stack (%d calls)", calls)
	}
	if got := d.Inconsistencies(); got[0].Count != 2 || got[1].Count != 2 {
		t.Fatalf("duplicates must be counted: %d, %d", got[0].Count, got[1].Count)
	}
}

func TestSyncVarsAccessor(t *testing.T) {
	d := newDet()
	d.AnnotateSyncVar(SyncVar{Name: "a", Addr: 0, Size: 8})
	d.AnnotateSyncVar(SyncVar{Name: "b", Addr: 8, Size: 8})
	if got := d.SyncVars(); len(got) != 2 || got[0].Name != "a" {
		t.Fatalf("SyncVars = %+v", got)
	}
}

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		KindInterCandidate: "Inter-Cand",
		KindIntraCandidate: "Intra-Cand",
		KindInter:          "Inter",
		KindIntra:          "Intra",
		KindSync:           "Sync",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if FlowValue.String() != "value" || FlowAddress.String() != "address" {
		t.Fatalf("flow strings wrong")
	}
}

func TestWhitelistMatch(t *testing.T) {
	w := NewWhitelist("pmdk_tx_alloc")
	if !w.MatchStack([]string{"target.go:10 doPut", "pmdk.go:55 pmdk_tx_alloc"}) {
		t.Fatalf("whitelist must match stack frame substring")
	}
	if w.MatchStack([]string{"target.go:10 doPut"}) {
		t.Fatalf("whitelist must not match unrelated stacks")
	}
	w.Add("items.go:42")
	if !w.MatchStack([]string{"items.go:42 rebuild"}) {
		t.Fatalf("added entry must match")
	}
	if len(w.Entries()) != 2 {
		t.Fatalf("entries = %v", w.Entries())
	}
}

func TestWhitelistMatchInconsistencyBySite(t *testing.T) {
	redo := site.Named("redo-log-alloc")
	d := newDet()
	lab := d.OnDirtyRead(taint.Event{Addr: 64, Epoch: 1, WriteSite: uint32(redo), ReadSite: 2, Writer: 1, Reader: 2})
	found := d.OnStore(StoreCheck{Thread: 2, Site: 9, Addr: 256, Size: 8, ValLab: lab, StillDirty: alwaysDirty})
	if len(found) != 1 {
		t.Fatalf("setup failed")
	}
	w := NewWhitelist("redo-log-alloc")
	if !w.MatchInconsistency(found[0]) {
		t.Fatalf("whitelist must match by write-site name")
	}
	if NewWhitelist("unrelated").MatchInconsistency(found[0]) {
		t.Fatalf("unrelated whitelist must not match")
	}
}

func TestOnFlushRedundantDetection(t *testing.T) {
	d := newDet()
	d.OnFlush(31, 64, false) // all clean: redundant
	d.OnFlush(31, 64, false)
	d.OnFlush(32, 128, true) // dirty data: useful flush
	red := d.RedundantFlushes()
	if len(red) != 1 || red[0].Count != 2 || red[0].Site != 31 {
		t.Fatalf("redundant flushes = %+v", red)
	}
}
