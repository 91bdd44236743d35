package rt

import (
	"runtime"
	"sync"
	"testing"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// syncLoad and syncStore access the word at 64 from fixed call sites.
func syncLoad(th *Thread)  { th.Load64(64) }
func syncStore(th *Thread) { th.Store64(64, 1, taint.None, taint.None) }

// syncEntry returns a priority-queue entry whose sync point is syncLoad and
// whose signalling store is syncStore.
func syncEntry(t *testing.T) *sched.Entry {
	t.Helper()
	e := NewEnv(pmem.New(4096), Config{TraceDepth: 4})
	th := e.Spawn()
	syncLoad(th)
	syncStore(th)
	th.Exit()
	accs := e.RecentAccesses()
	if len(accs) != 2 {
		t.Fatalf("traced %d accesses, want 2", len(accs))
	}
	return &sched.Entry{
		Addr:       64,
		LoadSites:  map[site.ID]struct{}{accs[0].Site: {}},
		StoreSites: map[site.ID]struct{}{accs[1].Site: {}},
	}
}

// waitState spins until the ledger reports th in state s.
func waitState(e *Env, th *Thread, s sched.RunState) {
	for {
		if st, _ := e.ledger.State(th.ID); st == s {
			return
		}
		runtime.Gosched()
	}
}

// TestMutexPMAwareWaiterHoldsLock is the pmwal shape: the waiter reaches
// its sync point holding the lock the writer needs, so no signal can come.
// The sync point must be disabled as soon as the writer blocks, not by the
// wall-clock backstop.
func TestMutexPMAwareWaiterHoldsLock(t *testing.T) {
	pm := sched.NewPMAware(sched.DefaultConfig(), syncEntry(t), 0)
	e := NewEnv(pmem.New(4096), Config{Strategy: pm})
	var mu Mutex
	e.BeginExec(2)
	waiter, writer := e.Spawn(), e.Spawn()
	locked := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		mu.Lock(waiter)
		close(locked)
		syncLoad(waiter)
		mu.Unlock(waiter)
		waiter.Exit()
	}()
	<-locked
	mu.Lock(writer)
	syncStore(writer)
	mu.Unlock(writer)
	writer.Exit()
	<-done
	e.EndExec()
	out := pm.Outcome()
	if !out.Disabled || out.Backstop || out.Signalled || out.CondWaits != 1 {
		t.Fatalf("outcome = %+v, want one wait ended by a quiescent disable", out)
	}
}

func TestMutexUnlockReleasesWaitersBeforeReturning(t *testing.T) {
	e := NewEnv(pmem.New(4096), Config{Strategy: sched.NewPMAware(sched.DefaultConfig(), nil, 0)})
	var mu Mutex
	a, b := e.Spawn(), e.Spawn()
	mu.Lock(a)
	got := make(chan struct{})
	go func() {
		mu.Lock(b)
		mu.Unlock(b)
		close(got)
	}()
	waitState(e, b, sched.LockBlocked)
	mu.Unlock(a)
	if st, _ := e.ledger.State(b.ID); st != sched.Running {
		t.Fatalf("waiter state %v after Unlock returned, want running", st)
	}
	<-got
}

func TestMutexExcludesWithAndWithoutLedger(t *testing.T) {
	for _, strat := range []sched.Strategy{nil, sched.NewPMAware(sched.DefaultConfig(), nil, 0)} {
		e := NewEnv(pmem.New(4096), Config{Strategy: strat})
		var mu Mutex
		var wg sync.WaitGroup
		n := 0
		for i := 0; i < 4; i++ {
			th := e.Spawn()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < 200; j++ {
					mu.Lock(th)
					n++
					mu.Unlock(th)
				}
			}()
		}
		wg.Wait()
		if n != 800 {
			t.Fatalf("strategy %T: %d increments, want 800", strat, n)
		}
	}
}

func TestLedgerSpinLockWaiterBlocksAndIsReleased(t *testing.T) {
	e := NewEnv(pmem.New(4096), Config{Strategy: sched.NewPMAware(sched.DefaultConfig(), nil, 0)})
	a, b := e.Spawn(), e.Spawn()
	a.SpinLock(128)
	got := make(chan struct{})
	go func() {
		b.SpinLock(128)
		b.SpinUnlock(128)
		close(got)
	}()
	waitState(e, b, sched.LockBlocked)
	a.SpinUnlock(128)
	if st, _ := e.ledger.State(b.ID); st != sched.Running {
		t.Fatalf("spinner state %v after SpinUnlock returned, want running", st)
	}
	<-got
	if st, _ := e.ledger.State(b.ID); st != sched.Running {
		t.Fatalf("spinner state %v after acquiring, want running", st)
	}
}
