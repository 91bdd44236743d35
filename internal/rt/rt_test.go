package rt

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

func newEnv(t *testing.T, cfg Config) *Env {
	t.Helper()
	return NewEnv(pmem.New(4096), cfg)
}

func TestLoadCleanWordHasNoLabel(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 42, taint.None, taint.None)
	t1.Persist(64, 8)
	val, lab := t1.Load64(64)
	if val != 42 || lab != taint.None {
		t.Fatalf("val=%d lab=%d, want 42 with no taint", val, lab)
	}
	if len(e.Detector().Candidates()) != 0 {
		t.Fatalf("clean read must not create candidates")
	}
}

func TestDirtyReadCreatesInterCandidate(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 42, taint.None, taint.None) // not flushed
	val, lab := t2.Load64(64)
	if val != 42 {
		t.Fatalf("val = %d", val)
	}
	if lab == taint.None {
		t.Fatalf("dirty cross-thread read must be tainted")
	}
	cands := e.Detector().Candidates()
	if len(cands) != 1 || !cands[0].Inter() {
		t.Fatalf("candidates = %+v", cands)
	}
}

func TestDirtyReadSameThreadIsIntraCandidate(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None)
	_, lab := t1.Load64(64)
	if lab == taint.None {
		t.Fatalf("intra dirty read must be tainted")
	}
	inter, intra := e.Detector().CandidateCounts()
	if inter != 0 || intra != 1 {
		t.Fatalf("counts = %d inter %d intra", inter, intra)
	}
}

// TestFigure1ValueFlow reproduces the paper's Figure 1: thread-1 writes x
// without flushing; thread-2 reads x and durably writes y based on it.
func TestFigure1ValueFlow(t *testing.T) {
	var detected []*core.Inconsistency
	e := newEnv(t, Config{
		OnInconsistency: func(_ *Env, in *core.Inconsistency) { detected = append(detected, in) },
	})
	t1, t2 := e.Spawn(), e.Spawn()

	const x, y = 64, 512
	t1.Store64(x, 0xA, taint.None, taint.None) // store A to x, no flush yet
	v, lab := t2.Load64(x)                     // thread-2 reads non-persisted A
	t2.Store64(y, v, lab, taint.None)          // writes y based on A
	t2.Persist(y, 8)                           // y durable while x is not

	if len(detected) != 1 {
		t.Fatalf("detected %d inconsistencies, want 1", len(detected))
	}
	in := detected[0]
	if in.Kind != core.KindInter || in.Flow != core.FlowValue {
		t.Fatalf("kind=%v flow=%v", in.Kind, in.Flow)
	}
	if in.SideEffect.Off != y || in.DirtyRange.Off != x {
		t.Fatalf("side effect %+v dirty %+v", in.SideEffect, in.DirtyRange)
	}
	if len(in.Stack) == 0 {
		t.Fatalf("inconsistency must carry a stack trace")
	}
}

// TestPCLHTAddressFlow reproduces the address-flow shape of the P-CLHT bug:
// thread-2 reads an unflushed table pointer and inserts (NT store) at an
// address derived from it.
func TestPCLHTAddressFlow(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()

	const tablePtr = 0                                 // holds offset of current table
	t1.Store64(tablePtr, 1024, taint.None, taint.None) // swap to new table, unflushed

	ptr, lab := t2.Load64(tablePtr)
	t2.NTStore64(ptr+16, 0xBEEF, taint.None, lab) // address derived from dirty pointer

	ins := e.Detector().Inconsistencies()
	if len(ins) != 1 || ins[0].Flow != core.FlowAddress || ins[0].Kind != core.KindInter {
		t.Fatalf("inconsistencies = %+v", ins)
	}
}

func TestPersistedDependencyIsNotInconsistency(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 5, taint.None, taint.None)
	v, lab := t2.Load64(64) // candidate: dirty read
	t1.Persist(64, 8)       // but writer persists before the side effect
	t2.Store64(512, v, lab, taint.None)
	if got := len(e.Detector().Inconsistencies()); got != 0 {
		t.Fatalf("persisted dependency must not confirm, got %d", got)
	}
	if got := len(e.Detector().Candidates()); got != 1 {
		t.Fatalf("the candidate must still be recorded, got %d", got)
	}
}

func TestShadowLabelPropagatesAcrossStores(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2, t3 := e.Spawn(), e.Spawn(), e.Spawn()
	t1.Store64(64, 5, taint.None, taint.None)
	v, lab := t2.Load64(64)               // tainted
	t2.Store64(128, v+1, lab, taint.None) // derived value stored (side effect)
	t2.Persist(128, 8)
	// Thread-3 loads the derived value after it was persisted: the word is
	// clean, but its shadow label still carries the dependency.
	_, lab3 := t3.Load64(128)
	if lab3 == taint.None {
		t.Fatalf("shadow label must propagate through PM")
	}
	t3.Store64(256, 1, lab3, taint.None)
	// Original x is still dirty: transitive side effect confirmed.
	found := false
	for _, in := range e.Detector().Inconsistencies() {
		if in.SideEffect.Off == 256 {
			found = true
		}
	}
	if !found {
		t.Fatalf("transitive durable side effect not detected: %+v", e.Detector().Inconsistencies())
	}
}

func TestNTStoreIsDurableSideEffect(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 5, taint.None, taint.None)
	v, lab := t2.Load64(64)
	t2.NTStore64(512, v, lab, taint.None) // durable immediately
	ins := e.Detector().Inconsistencies()
	if len(ins) != 1 {
		t.Fatalf("NT store side effect not detected: %+v", ins)
	}
}

func TestStoreBytesAndLoadBytesTaint(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.StoreBytes(64, []byte("dirty value bytes"), taint.None, taint.None)
	data, lab := t2.LoadBytes(64, 17)
	if string(data) != "dirty value bytes" {
		t.Fatalf("data = %q", data)
	}
	if lab == taint.None {
		t.Fatalf("dirty byte read must be tainted")
	}
	t2.StoreBytes(512, data, lab, taint.None)
	if len(e.Detector().Inconsistencies()) != 1 {
		t.Fatalf("byte-range side effect not detected")
	}
}

func TestCAS64SuccessAndFailure(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	ok, old, _ := t1.CAS64(64, 0, 7, taint.None, taint.None)
	if !ok || old != 0 {
		t.Fatalf("CAS should succeed: ok=%v old=%d", ok, old)
	}
	ok, old, _ = t1.CAS64(64, 0, 9, taint.None, taint.None)
	if ok || old != 7 {
		t.Fatalf("CAS should fail: ok=%v old=%d", ok, old)
	}
}

func TestCASObservesDirtyData(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 3, taint.None, taint.None)
	_, _, lab := t2.CAS64(64, 3, 4, taint.None, taint.None)
	if lab == taint.None {
		t.Fatalf("CAS on dirty word must return taint")
	}
	if len(e.Detector().Candidates()) != 1 {
		t.Fatalf("CAS dirty read must create a candidate")
	}
}

func TestSpinLockRoundTrip(t *testing.T) {
	e := newEnv(t, Config{HangTimeout: 100 * time.Millisecond})
	t1 := e.Spawn()
	t1.SpinLock(64)
	if got := e.Pool().Load64(64); got != 1 {
		t.Fatalf("lock word = %d, want 1", got)
	}
	t1.SpinUnlock(64)
	if got := e.Pool().Load64(64); got != 0 {
		t.Fatalf("lock word = %d, want 0", got)
	}
}

func TestSpinLockHangDetection(t *testing.T) {
	var hang *HangReport
	e := newEnv(t, Config{
		HangTimeout: 20 * time.Millisecond,
		OnHang:      func(_ *Env, h HangReport) { hang = &h },
	})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.SpinLock(64) // held and never released
	defer func() {
		r := recover()
		if _, ok := r.(HangError); !ok {
			t.Fatalf("expected HangError panic, got %v", r)
		}
		if hang == nil || hang.Thread != t2.ID || hang.Addr != 64 {
			t.Fatalf("hang report = %+v", hang)
		}
		if herr, _ := r.(HangError); herr.Error() == "" {
			t.Fatalf("HangError must format")
		}
	}()
	t2.SpinLock(64)
}

func TestSyncVarAnnotationTriggersCallback(t *testing.T) {
	var syncs []*core.SyncInconsistency
	e := newEnv(t, Config{
		OnSync: func(_ *Env, si *core.SyncInconsistency) { syncs = append(syncs, si) },
	})
	e.AnnotateSyncVar(core.SyncVar{Name: "bucket-lock", Addr: 64, Size: 8, InitVal: 0})
	t1 := e.Spawn()
	t1.SpinLock(64)
	if len(syncs) != 1 || syncs[0].Var.Name != "bucket-lock" || syncs[0].NewVal != 1 {
		t.Fatalf("syncs = %+v", syncs)
	}
	t1.SpinUnlock(64) // different site: second report
	if len(syncs) != 2 {
		t.Fatalf("unlock must also report, got %d", len(syncs))
	}
}

// TestFindingsCompleteWhenPublished reads the detector's findings while
// driver threads are still recording new ones. Run under -race it fails if
// a finding is published before its stack or lineage is set.
func TestFindingsCompleteWhenPublished(t *testing.T) {
	const n = 64
	e := NewEnv(pmem.New(8192), Config{})
	w, r, l := e.Spawn(), e.Spawn(), e.Spawn()
	for i := 0; i < n; i++ {
		// Distinct write sites and variable names: every store below
		// records a new finding.
		w.store64At(pmem.Addr(i*8), uint64(i+1), taint.None, taint.None, site.Named(fmt.Sprintf("publish-w%d", i)))
		e.AnnotateSyncVar(core.SyncVar{Name: fmt.Sprintf("publish-lock%d", i), Addr: pmem.Addr(4096 + i*8), Size: 8})
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			v, lab := r.Load64(pmem.Addr(i * 8))
			r.Store64(pmem.Addr(1024+i*8), v, lab, taint.None)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.Store64(pmem.Addr(4096+i*8), 1, taint.None, taint.None)
		}
	}()
	go func() {
		wg.Wait()
		close(done)
	}()
	frames := 0
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		for _, in := range e.Detector().Inconsistencies() {
			frames += len(in.Stack) + len(in.Lineage)
		}
		for _, si := range e.Detector().SyncInconsistencies() {
			frames += len(si.Stack)
		}
	}
	ins, syncs := e.Detector().Inconsistencies(), e.Detector().SyncInconsistencies()
	if len(ins) != n || len(syncs) != n || frames == 0 {
		t.Fatalf("recorded %d inconsistencies and %d sync inconsistencies, want %d each", len(ins), len(syncs), n)
	}
	for _, si := range syncs {
		if len(si.Stack) == 0 {
			t.Fatalf("sync inconsistency %s published without a stack", si.Var.Name)
		}
	}
}

func TestBranchCoverage(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	before := e.Coverage().Branch.Count()
	t1.Branch()
	t1.Branch()
	after := e.Coverage().Branch.Count()
	if after <= before {
		t.Fatalf("branch coverage did not grow: %d -> %d", before, after)
	}
}

func TestAliasCoverageCrossThreadOnly(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None)
	t1.Load64(64) // same thread: no alias pair
	t1.Fence()    // sync point: drains t1's access log
	if got := e.Coverage().Alias.Count(); got != 0 {
		t.Fatalf("same-thread accesses must not form alias pairs, got %d", got)
	}
	t2.Load64(64) // cross-thread back-to-back: alias pair
	t2.Fence()
	if got := e.Coverage().Alias.Count(); got != 1 {
		t.Fatalf("alias coverage = %d, want 1", got)
	}
}

// TestDeferredAnalysisPublishesAtSyncPoints pins the epoch-log contract:
// per-access analysis results are not published inline but at the next sync
// point (fence, unlock, exit), and the thread's drain clock advances once per
// drain, not per access.
func TestDeferredAnalysisPublishesAtSyncPoints(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None)
	t2.Load64(64) // cross-thread alias pair, still in t2's log
	if got := e.Coverage().Alias.Count(); got != 0 {
		t.Fatalf("alias pair published before sync point: count = %d", got)
	}
	if c := e.Batch().Clock(t2.ID); c != 0 {
		t.Fatalf("clock advanced before drain: %d", c)
	}
	t2.Load64(64)
	t2.Fence()
	if got := e.Coverage().Alias.Count(); got != 1 {
		t.Fatalf("alias coverage after drain = %d, want 1", got)
	}
	if c := e.Batch().Clock(t2.ID); c != 1 {
		t.Fatalf("clock after one drain = %d, want 1", c)
	}
	t2.Exit()
	// An empty log drains nothing: the clock must not advance.
	if c := e.Batch().Clock(t2.ID); c != 1 {
		t.Fatalf("clock after empty exit drain = %d, want 1", c)
	}
}

func TestStatsCollection(t *testing.T) {
	e := NewEnv(pmem.New(4096), Config{CollectStats: true})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None)
	t2.Load64(64)
	t1.Exit()
	t2.Exit()
	stats := e.Stats()
	st, ok := stats[64]
	if !ok || !st.Shared() || st.Total != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestStatsDisabledByDefault(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None)
	if len(e.Stats()) != 0 {
		t.Fatalf("stats must be off unless enabled")
	}
}

func TestWriteRecorder(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None) // before enabling: not recorded
	e.EnableWriteRecorder()
	t1.Store64(128, 2, taint.None, taint.None)
	t1.StoreBytes(256, make([]byte, 24), taint.None, taint.None)
	if e.RangeOverwritten(pmem.Range{Off: 64, Len: 8}) {
		t.Fatalf("pre-recorder write must not count")
	}
	if !e.RangeOverwritten(pmem.Range{Off: 128, Len: 8}) {
		t.Fatalf("recorded write must count")
	}
	if !e.RangeOverwritten(pmem.Range{Off: 256, Len: 24}) {
		t.Fatalf("byte-range write must count")
	}
	if e.RangeOverwritten(pmem.Range{Off: 256, Len: 40}) {
		t.Fatalf("partially overwritten range must not count")
	}
	if len(e.WrittenWords()) != 4 {
		t.Fatalf("written words = %v", e.WrittenWords())
	}
}

func TestRangeOverwrittenWithoutRecorder(t *testing.T) {
	e := newEnv(t, Config{})
	if e.RangeOverwritten(pmem.Range{Off: 0, Len: 8}) {
		t.Fatalf("without recorder nothing is overwritten")
	}
}

func TestOnInconsistencyPoolStillBuggy(t *testing.T) {
	checked := false
	e := NewEnv(pmem.New(4096), Config{
		OnInconsistency: func(env *Env, in *core.Inconsistency) {
			// At detection time the dependency must still be dirty.
			if !env.Pool().WordState(in.DirtyRange.Off).Dirty {
				panic("dependency already clean at callback time")
			}
			checked = true
		},
	})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 5, taint.None, taint.None)
	v, lab := t2.Load64(64)
	t2.Store64(512, v, lab, taint.None)
	if !checked {
		t.Fatalf("callback did not run")
	}
}

func TestSpawnAssignsSequentialIDs(t *testing.T) {
	e := newEnv(t, Config{})
	a, b := e.Spawn(), e.Spawn()
	if a.ID == b.ID {
		t.Fatalf("thread IDs must differ")
	}
	if a.Env() != e {
		t.Fatalf("Env accessor broken")
	}
	a.Exit()
	b.Exit()
}

func TestCaptureStackSkipsRuntimeFrames(t *testing.T) {
	stack := captureStack()
	if len(stack) == 0 {
		t.Fatalf("stack must not be empty")
	}
	for _, fr := range stack {
		if fr == "" {
			t.Fatalf("empty frame")
		}
	}
}

func TestRedundantStoreDetection(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 7, taint.None, taint.None)
	for i := 0; i < 3; i++ {
		t1.Store64(64, 7, taint.None, taint.None) // same value: redundant
	}
	t1.Exit()
	red := e.Detector().RedundantStores()
	if len(red) != 1 || red[0].Count != 3 {
		t.Fatalf("redundant stores = %+v", red)
	}
}

func TestRedundantStoreIgnoresZeroOverZero(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 0, taint.None, taint.None) // zero over zero: init noise
	if len(e.Detector().RedundantStores()) != 0 {
		t.Fatalf("zero-over-zero must be ignored")
	}
}

func TestRedundantFlushChecker(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None)
	t1.Persist(64, 8) // useful
	t1.Persist(64, 8) // redundant: already clean
	t1.Flush(64, 8)   // redundant again
	t1.Fence()
	red := e.Detector().RedundantFlushes()
	if len(red) == 0 {
		t.Fatalf("redundant flush not detected")
	}
	total := 0
	for _, r := range red {
		total += r.Count
	}
	if total != 2 {
		t.Fatalf("redundant flush count = %d, want 2", total)
	}
}

func TestUnflushedScanner(t *testing.T) {
	e := newEnv(t, Config{})
	t1 := e.Spawn()
	t1.Store64(64, 1, taint.None, taint.None)
	t1.Persist(64, 8)
	t1.Store64(512, 2, taint.None, taint.None) // never flushed
	t1.Store64(520, 3, taint.None, taint.None) // same site? different line word
	missing := core.UnflushedScanner(e.Pool())
	if len(missing) == 0 {
		t.Fatalf("unflushed writes not found")
	}
	words := 0
	for _, u := range missing {
		words += u.Words
	}
	if words != 2 {
		t.Fatalf("unflushed words = %d, want 2", words)
	}
}

// Property: after persisting every range that was stored, the cache image
// equals the persisted image (no write escapes the persistence protocol).
func TestPersistAllMakesImagesEqualProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		e := NewEnv(pmem.New(4096), Config{})
		th := e.Spawn()
		var addrs []pmem.Addr
		for i, op := range ops {
			addr := pmem.Addr(op%(4096/8)) * 8
			th.Store64(addr, uint64(i)+1, taint.None, taint.None)
			addrs = append(addrs, addr)
		}
		for _, a := range addrs {
			th.Persist(a, 8)
		}
		return e.Pool().PersistedEquals(0, 4096)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: every dirty cross-thread read yields a non-None label, and the
// label's events name the actual writer.
func TestDirtyReadLabelProperty(t *testing.T) {
	f := func(slots []uint8) bool {
		e := NewEnv(pmem.New(4096), Config{})
		w, r := e.Spawn(), e.Spawn()
		for i, s := range slots {
			addr := pmem.Addr(s%32)*64 + 1024
			w.Store64(addr, uint64(i)+1, taint.None, taint.None)
			_, lab := r.Load64(addr)
			if lab == taint.None {
				return false
			}
			events := e.Labels().Events(lab)
			if len(events) == 0 || events[len(events)-1].Writer != int32(w.ID) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkHookStore64(b *testing.B) {
	e := NewEnv(pmem.New(1<<20), Config{})
	th := e.Spawn()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		th.Store64(pmem.Addr(i%(1<<16))*8, uint64(i), taint.None, taint.None)
	}
}

func BenchmarkHookLoad64(b *testing.B) {
	e := NewEnv(pmem.New(1<<20), Config{})
	th := e.Spawn()
	th.Store64(64, 1, taint.None, taint.None)
	th.Persist(64, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		th.Load64(64)
	}
}

func BenchmarkHookDirtyReadDetection(b *testing.B) {
	e := NewEnv(pmem.New(1<<20), Config{})
	w, r := e.Spawn(), e.Spawn()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addr := pmem.Addr(i%(1<<10)) * 64
		w.Store64(addr, uint64(i), taint.None, taint.None)
		r.Load64(addr)
	}
}

func TestAccessTraceRing(t *testing.T) {
	e := NewEnv(pmem.New(4096), Config{TraceDepth: 3})
	th := e.Spawn()
	th.Store64(64, 1, taint.None, taint.None)
	th.Load64(64)
	th.Persist(64, 8)
	th.NTStore64(128, 2, taint.None, taint.None)
	trace := e.RecentAccesses()
	if len(trace) != 3 {
		t.Fatalf("trace length = %d, want ring capacity 3", len(trace))
	}
	// Chronological order and sequence numbers must be increasing.
	for i := 1; i < len(trace); i++ {
		if trace[i].Seq <= trace[i-1].Seq {
			t.Fatalf("trace not chronological: %+v", trace)
		}
	}
	// Ring wrap: the first event (the store) must have been evicted.
	if trace[0].Kind == AccStore && trace[0].Addr == 64 {
		t.Fatalf("oldest event should have been evicted from the ring")
	}
	lines := FormatTrace(trace, 2)
	if len(lines) != 2 {
		t.Fatalf("FormatTrace tail = %d lines", len(lines))
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	e := newEnv(t, Config{})
	th := e.Spawn()
	th.Store64(64, 1, taint.None, taint.None)
	if e.RecentAccesses() != nil {
		t.Fatalf("tracing must be off unless configured")
	}
}

func TestAccessKindStrings(t *testing.T) {
	kinds := map[AccessKind]string{
		AccLoad: "load", AccStore: "store", AccNTStore: "ntstore",
		AccCAS: "cas", AccFlush: "flush", AccFence: "fence",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

// TestExternSideEffect covers Definition 2's non-PM durable effects: data
// derived from a non-persisted write escaping to disk/another program.
func TestExternSideEffect(t *testing.T) {
	e := newEnv(t, Config{})
	t1, t2 := e.Spawn(), e.Spawn()
	t1.Store64(64, 5, taint.None, taint.None) // unflushed
	_, lab := t2.Load64(64)
	t2.ExternSideEffect(lab) // e.g. answering a client with the dirty value
	ins := e.Detector().Inconsistencies()
	if len(ins) != 1 || !ins[0].External || ins[0].Kind != core.KindInter {
		t.Fatalf("inconsistencies = %+v", ins)
	}
	// Untainted external effects are not findings.
	t2.ExternSideEffect(taint.None)
	if len(e.Detector().Inconsistencies()) != 1 {
		t.Fatalf("untainted extern effect must not report")
	}
}
