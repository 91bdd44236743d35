package sched

import (
	"sync"
	"sync/atomic"

	"github.com/pmrace-go/pmrace/internal/pmem"
)

// RunState is a live thread's state in a Ledger.
type RunState uint8

const (
	// Running covers every thread that may make progress, including one
	// the Go scheduler has not run yet.
	Running RunState = iota
	// CondWaiting is a thread parked in the PM-aware cond_wait.
	CondWaiting
	// LockBlocked is a thread waiting for a lock another thread holds.
	LockBlocked
	numStates
)

// Ledger records the run state of every live thread of one execution, so
// the PM-aware strategy can decide "no thread can run" from events rather
// than from wall-clock timeouts (paper §4.2.2, Figure 6). The runtime owns
// it and reports lock waits and sync-point loads; the strategy reports
// thread lifecycle and cond_wait.
type Ledger struct {
	mu      sync.Mutex
	threads map[pmem.ThreadID]*ledgerThread
	count   [numStates]int // live threads per state
	// unstarted counts threads BeginExec announced that have not started
	// yet; they count as running.
	unstarted int

	// blocked mirrors count[LockBlocked] and unread the released readers
	// still ahead of their sync-point load, so lock releases and loads
	// cost one atomic load when nobody waits.
	blocked atomic.Int32
	unread  atomic.Int32

	// idle runs under mu when some thread is in cond_wait and none is
	// running; passed runs under mu when unread drops to zero.
	idle, passed func()
}

type ledgerThread struct {
	state RunState
	lock  any           // what a LockBlocked thread waits for
	wake  chan struct{} // one token per release from CondWaiting or LockBlocked
	// unread marks a reader released by a signal whose sync-point load is
	// still ahead; bypass marks the privileged thread of Pitfall-2.
	unread, bypass bool
}

// NewLedger creates an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{threads: make(map[pmem.ThreadID]*ledgerThread), idle: func() {}, passed: func() {}}
}

// thread returns t's entry, registering t as running if it is unknown.
func (l *Ledger) thread(t pmem.ThreadID) *ledgerThread {
	th := l.threads[t]
	if th == nil {
		th = &ledgerThread{wake: make(chan struct{}, 1)}
		l.threads[t] = th
		l.count[Running]++
	}
	return th
}

// expect announces that n threads are about to run, minus those already
// live.
func (l *Ledger) expect(n int) {
	l.mu.Lock()
	l.unstarted = max(0, n-len(l.threads))
	l.mu.Unlock()
}

func (l *Ledger) start(t pmem.ThreadID) {
	l.mu.Lock()
	l.thread(t)
	if l.unstarted > 0 {
		l.unstarted--
	}
	l.mu.Unlock()
}

func (l *Ledger) exit(t pmem.ThreadID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	th := l.threads[t]
	if th == nil {
		return
	}
	l.pass(th)
	l.count[th.state]--
	l.syncBlocked()
	delete(l.threads, t)
	l.settle()
}

// set moves th to state s and, when th stopped running, re-evaluates
// quiescence. Caller holds mu.
func (l *Ledger) set(th *ledgerThread, s RunState) {
	l.count[th.state]--
	th.state = s
	l.count[s]++
	l.syncBlocked()
	if s != Running {
		l.settle()
	}
}

// release makes a CondWaiting or LockBlocked thread running and wakes it.
// Caller holds mu. The send never blocks: a thread is released at most once
// per wait, and it takes the token before it can wait again.
func (l *Ledger) release(th *ledgerThread) {
	l.set(th, Running)
	th.lock = nil
	select {
	case th.wake <- struct{}{}:
	default:
	}
}

func (l *Ledger) syncBlocked() { l.blocked.Store(int32(l.count[LockBlocked])) }

// settle calls idle when no thread can run and one waits at a sync point.
func (l *Ledger) settle() {
	if l.count[Running]+l.unstarted == 0 && l.count[CondWaiting] > 0 {
		l.idle()
	}
}

// pass clears th's pending sync-point load. Caller holds mu.
func (l *Ledger) pass(th *ledgerThread) {
	if !th.unread {
		return
	}
	th.unread = false
	if l.unread.Add(-1) == 0 {
		l.passed()
	}
}

// Block records that thread t is about to wait for lock, unless held,
// called under the ledger's lock, reports it free. It returns the channel
// that receives a token when a Release of lock makes t running again, or
// nil when t need not wait. Recording and the check are atomic with
// respect to Release, so a thread is never counted blocked on a lock whose
// holder has already released it and moved on.
func (l *Ledger) Block(t pmem.ThreadID, lock any, held func() bool) <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Count the thread before the check: a Release that follows the
	// owner's unlock then cannot miss it on its lock-free fast path.
	l.blocked.Add(1)
	if !held() {
		l.syncBlocked()
		return nil
	}
	th := l.thread(t)
	l.pass(th)
	th.lock = lock
	l.set(th, LockBlocked)
	return th.wake
}

// Unblock records that t stopped waiting without a Release: it acquired
// the lock or gave up. A token a concurrent Release left is consumed.
func (l *Ledger) Unblock(t pmem.ThreadID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	th := l.threads[t]
	if th == nil {
		return
	}
	if th.state == LockBlocked {
		th.lock = nil
		l.set(th, Running)
		return
	}
	select {
	case <-th.wake:
	default:
	}
}

// Release makes every thread blocked on lock running again. Lock owners call
// it after the lock is free and before they do anything else.
func (l *Ledger) Release(lock any) {
	if l.blocked.Load() == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, th := range l.threads {
		if th.state == LockBlocked && th.lock == lock {
			l.release(th)
		}
	}
}

// PassedLoad records that t executed a PM load; the first one after a
// signal released t is its sync-point load.
func (l *Ledger) PassedLoad(t pmem.ThreadID) {
	if l.unread.Load() == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if th := l.threads[t]; th != nil {
		l.pass(th)
	}
}

// State returns t's run state; false when t is not live.
func (l *Ledger) State(t pmem.ThreadID) (RunState, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	th := l.threads[t]
	if th == nil {
		return 0, false
	}
	return th.state, true
}
