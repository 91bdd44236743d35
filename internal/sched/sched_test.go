package sched

import (
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

func entryFor(addr pmem.Addr, loads, stores []site.ID) *Entry {
	e := &Entry{Addr: addr, LoadSites: map[site.ID]struct{}{}, StoreSites: map[site.ID]struct{}{}}
	for _, s := range loads {
		e.LoadSites[s] = struct{}{}
	}
	for _, s := range stores {
		e.StoreSites[s] = struct{}{}
	}
	return e
}

func TestAddrStatsRecordAndShared(t *testing.T) {
	st := new(AddrStats)
	st.Record(1, 10, false)
	if st.Shared() {
		t.Fatalf("single-thread access must not be shared")
	}
	st.Record(2, 11, true)
	if !st.Shared() || st.Total != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Loads(10) != 1 || st.Stores(11) != 1 {
		t.Fatalf("site counts wrong: %+v", st)
	}
}

func TestAddrStatsMerge(t *testing.T) {
	a, b := new(AddrStats), new(AddrStats)
	a.Record(1, 10, false)
	b.Record(2, 10, false)
	b.Record(2, 11, true)
	a.Merge(b)
	if a.Total != 3 || a.Loads(10) != 2 || !a.Shared() {
		t.Fatalf("merged = %+v", a)
	}
}

func TestBuildQueueFiltersAndOrders(t *testing.T) {
	stats := map[pmem.Addr]*AddrStats{}
	// Hot shared address with loads and stores.
	hot := new(AddrStats)
	for i := 0; i < 10; i++ {
		hot.Record(1, 1, false)
		hot.Record(2, 2, true)
	}
	stats[100] = hot
	// Cooler shared address.
	cool := new(AddrStats)
	cool.Record(1, 3, false)
	cool.Record(2, 4, true)
	stats[200] = cool
	// Shared but load-only: no read-after-write to force.
	loadOnly := new(AddrStats)
	loadOnly.Record(1, 5, false)
	loadOnly.Record(2, 6, false)
	stats[300] = loadOnly
	// Unshared.
	solo := new(AddrStats)
	solo.Record(1, 7, false)
	solo.Record(1, 8, true)
	stats[400] = solo

	q := BuildQueue(stats)
	if q.Len() != 2 {
		t.Fatalf("queue length = %d, want 2", q.Len())
	}
	first := q.Pop()
	if first.Addr != 100 {
		t.Fatalf("first entry addr = %d, want hottest (100)", first.Addr)
	}
	second := q.Pop()
	if second.Addr != 200 {
		t.Fatalf("second entry addr = %d", second.Addr)
	}
	if q.Pop() != nil {
		t.Fatalf("exhausted queue must return nil")
	}
	if q.Remaining() != 0 {
		t.Fatalf("remaining = %d", q.Remaining())
	}
}

func TestBuildQueueDeterministicTieBreak(t *testing.T) {
	stats := map[pmem.Addr]*AddrStats{}
	for _, addr := range []pmem.Addr{300, 100, 200} {
		st := new(AddrStats)
		st.Record(1, 1, false)
		st.Record(2, 2, true)
		stats[addr] = st
	}
	q := BuildQueue(stats)
	if a := q.Pop().Addr; a != 100 {
		t.Fatalf("tie-break must order by address, got %d", a)
	}
}

func TestNoneStrategyIsNoop(t *testing.T) {
	var s Strategy = None{}
	s.BeginExec(4)
	s.ThreadStart(1)
	s.BeforeLoad(1, 0, 0)
	s.BeforeStore(1, 0, 0)
	s.AfterStore(1, 0, 0)
	s.ThreadExit(1)
	s.EndExec()
}

func TestDelayInjectorBounded(t *testing.T) {
	d := NewDelayInjector(100*time.Microsecond, 42)
	start := time.Now()
	for i := 0; i < 20; i++ {
		d.BeforeLoad(1, 0, 0)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("delays unreasonably long: %v", elapsed)
	}
}

func TestDelayInjectorDefaultBound(t *testing.T) {
	d := NewDelayInjector(0, 1)
	if d.MaxDelay <= 0 {
		t.Fatalf("default MaxDelay must be positive")
	}
}

// scripted builds a PM-aware strategy on entry with the given skip and live
// threads, armed for one execution. Its tests drive the ledger by hand: no
// goroutines, no sleeps.
func scripted(t *testing.T, skip int, threads ...pmem.ThreadID) (*PMAware, *Ledger, site.ID, site.ID) {
	t.Helper()
	load, store := site.Named(t.Name()+"-load"), site.Named(t.Name()+"-store")
	p := NewPMAware(DefaultConfig(), entryFor(64, []site.ID{load}, []site.ID{store}), skip)
	l := NewLedger()
	p.UseLedger(l)
	p.BeginExec(len(threads))
	for _, th := range threads {
		p.ThreadStart(th)
	}
	return p, l, load, store
}

// released reports whether the waiter was released, consuming the token.
func released(th *ledgerThread) bool {
	select {
	case <-th.wake:
		return true
	default:
		return false
	}
}

func closed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

func TestPMAwareWaitReleasedBySignal(t *testing.T) {
	p, l, _, _ := scripted(t, 0, 1, 2)
	reader := p.enterWait(1)
	if reader == nil || released(reader) {
		t.Fatalf("reader must wait while the writer runs")
	}
	held := p.signal()
	if held == nil || !released(reader) {
		t.Fatalf("signal must release the waiting reader")
	}
	if closed(held) {
		t.Fatalf("writer must be held until the reader passes its load")
	}
	l.PassedLoad(2) // the writer's own loads do not count
	if closed(held) {
		t.Fatalf("writer released by another thread's load")
	}
	l.PassedLoad(1)
	if !closed(held) {
		t.Fatalf("writer still held after the reader's sync-point load")
	}
	out := p.Outcome()
	if !out.Signalled || out.CondWaits != 1 || out.Disabled || out.Backstop {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestPMAwareWriterHoldEndsWhenReaderBlocksOrExits(t *testing.T) {
	p, l, _, _ := scripted(t, 0, 1, 2, 3)
	r1, r2 := p.enterWait(1), p.enterWait(2)
	held := p.signal()
	if !released(r1) || !released(r2) {
		t.Fatalf("signal must release every waiter")
	}
	if w := l.Block(1, "lock", func() bool { return true }); w == nil {
		t.Fatalf("held lock must block")
	}
	if closed(held) {
		t.Fatalf("one reader is still ahead of its load")
	}
	p.ThreadExit(2)
	if !closed(held) {
		t.Fatalf("writer still held after its readers blocked and exited")
	}
}

func TestPMAwareSignalDisablesFutureWaits(t *testing.T) {
	p, _, load, store := scripted(t, 0, 1, 2)
	p.AfterStore(2, 64, store) // nobody waits: no signal (Pitfall-1)
	if p.Outcome().Signalled {
		t.Fatalf("a store nobody waits for must not burn the signal")
	}
	p.enterWait(1)
	if p.signal() == nil {
		t.Fatalf("signal must fire for a waiting reader")
	}
	if p.enterWait(1) != nil || p.enterWait(2) != nil {
		t.Fatalf("cond_wait after the signal must be a no-op")
	}
	p.BeforeLoad(2, 64, load) // must return at once
}

func TestPMAwareSkipCount(t *testing.T) {
	p, _, _, _ := scripted(t, 2, 1, 2)
	if p.enterWait(1) != nil || p.enterWait(1) != nil {
		t.Fatalf("the first two cond_waits must be skipped")
	}
	if p.Outcome().CondWaits != 0 {
		t.Fatalf("skipped waits must not count")
	}
	if p.enterWait(1) == nil {
		t.Fatalf("the third cond_wait must wait")
	}
}

func TestPMAwareAllBlockedElectsPrivileged(t *testing.T) {
	elect := func() pmem.ThreadID {
		p, _, _, _ := scripted(t, 0, 1, 2, 3)
		ws := map[pmem.ThreadID]*ledgerThread{1: p.enterWait(1), 2: p.enterWait(2)}
		for id, w := range ws {
			if released(w) {
				t.Fatalf("thread %d released while thread 3 runs", id)
			}
		}
		ws[3] = p.enterWait(3)
		var chosen []pmem.ThreadID
		for id, w := range ws {
			if released(w) {
				chosen = append(chosen, id)
			}
		}
		if len(chosen) != 1 {
			t.Fatalf("released %v, want exactly one privileged thread", chosen)
		}
		if p.enterWait(chosen[0]) != nil {
			t.Fatalf("the privileged thread must bypass later waits")
		}
		if out := p.Outcome(); !out.PrivilegedUsed || out.Disabled {
			t.Fatalf("outcome = %+v", out)
		}
		return chosen[0]
	}
	if a, b := elect(), elect(); a != b {
		t.Fatalf("same seed elected %d then %d", a, b)
	}
}

func TestPMAwareBlockedThreadDisablesSyncPoint(t *testing.T) {
	p, l, _, _ := scripted(t, 0, 1, 2, 3)
	w := p.enterWait(1)
	l.Block(2, "log", func() bool { return true })
	if released(w) {
		t.Fatalf("thread 3 still runs: no decision yet")
	}
	l.Block(3, "log", func() bool { return true })
	if !released(w) {
		t.Fatalf("waiter must be released once no thread can run")
	}
	out := p.Outcome()
	if !out.Disabled || out.Backstop || out.CondWaits != 1 || out.PrivilegedUsed {
		t.Fatalf("outcome = %+v, want a quiescent disable", out)
	}
	if p.enterWait(2) != nil {
		t.Fatalf("disabled sync point must not wait")
	}
}

func TestPMAwareUnstartedThreadCountsAsRunning(t *testing.T) {
	p, l, _, _ := scripted(t, 0, 1)
	p.BeginExec(2) // thread 2 is announced but has not started
	w := p.enterWait(1)
	if released(w) {
		t.Fatalf("an unstarted thread may still signal")
	}
	p.ThreadStart(2)
	l.Block(2, "log", func() bool { return true })
	if !released(w) || !p.Outcome().Disabled {
		t.Fatalf("outcome = %+v, want disabled", p.Outcome())
	}
}

func TestLedgerReleaseMakesWaitersRunnable(t *testing.T) {
	p, l, _, _ := scripted(t, 0, 1, 2)
	if l.Block(2, "a", func() bool { return false }) != nil {
		t.Fatalf("a free lock must not block")
	}
	wake := l.Block(2, "a", func() bool { return true })
	l.Release("b")
	if st, _ := l.State(2); st != LockBlocked {
		t.Fatalf("release of another lock woke thread 2")
	}
	l.Release("a")
	if st, _ := l.State(2); st != Running || len(wake) != 1 {
		t.Fatalf("state %v, %d tokens after release", st, len(wake))
	}
	<-wake
	// Released before the waiter entered cond_wait: thread 2 runs, so
	// thread 1's wait is undecided.
	if w := p.enterWait(1); released(w) {
		t.Fatalf("quiescence declared while thread 2 runs")
	}
}

func TestLedgerUnblockConsumesStaleToken(t *testing.T) {
	_, l, _, _ := scripted(t, 0, 1, 2)
	wake := l.Block(2, "a", func() bool { return true })
	l.Release("a")
	l.Unblock(2) // acquired on its own after the release
	if len(wake) != 0 {
		t.Fatalf("stale release token left behind")
	}
	l.Block(2, "a", func() bool { return true })
	l.Unblock(2)
	if st, _ := l.State(2); st != Running || len(wake) != 0 {
		t.Fatalf("state %v, %d tokens after unblock", st, len(wake))
	}
}

// TestPMAwareBackstop covers blocking the ledger cannot see: the other
// thread is counted running, so only the wall-clock backstop ends the wait.
func TestPMAwareBackstop(t *testing.T) {
	p, _, load, _ := scripted(t, 0, 1, 2)
	start := time.Now()
	p.BeforeLoad(1, 64, load)
	if d := time.Since(start); d < backstop {
		t.Fatalf("wait ended after %v, before the backstop", d)
	}
	out := p.Outcome()
	if !out.Disabled || !out.Backstop {
		t.Fatalf("outcome = %+v, want a backstop disable", out)
	}
}

func TestPMAwareIgnoresOtherAddressesAndSites(t *testing.T) {
	p, _, load, _ := scripted(t, 0, 1, 2)
	p.BeforeLoad(1, 128, load)                // wrong address
	p.BeforeLoad(1, 64, site.Named("other"))  // wrong site
	p.AfterStore(1, 64, site.Named("other2")) // wrong store site: no signal
	if out := p.Outcome(); out.Signalled || out.CondWaits != 0 {
		t.Fatalf("non-entry accesses must be inert: %+v", out)
	}
}

func TestPMAwareNilEntryIsNoop(t *testing.T) {
	p := NewPMAware(DefaultConfig(), nil, 0)
	p.BeginExec(1)
	p.ThreadStart(1)
	p.BeforeLoad(1, 64, 1)
	p.AfterStore(1, 64, 1)
	if p.Outcome().Signalled || p.Outcome().CondWaits != 0 {
		t.Fatalf("nil entry must be inert: %+v", p.Outcome())
	}
}

func TestPMAwareZeroConfigGetsDefaults(t *testing.T) {
	p := NewPMAware(Config{}, nil, 0)
	if p.cfg != DefaultConfig() {
		t.Fatalf("zero config must be replaced by defaults: %+v", p.cfg)
	}
}
