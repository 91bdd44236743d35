package rt

import "sync"

// Mutex is a volatile lock for target code that the PM-aware scheduler can
// see. Under a strategy that keeps a run-state ledger, a thread waiting for a
// held Mutex counts as blocked, which is what lets the scheduler end a
// cond_wait as soon as no thread can run (paper §4.2.2, Pitfall-3) instead
// of after a timeout. Otherwise — sched.None in particular — Lock is a bare
// sync.Mutex.Lock.
//
// A nil thread takes the lock uncounted, like a plain sync.Mutex; test
// oracles such as a target's Live use it outside executions.
type Mutex struct{ mu sync.Mutex }

// Lock acquires the mutex on behalf of t.
func (m *Mutex) Lock(t *Thread) {
	if t == nil || t.env.ledger == nil {
		m.mu.Lock()
		return
	}
	for !m.mu.TryLock() {
		wake := t.env.ledger.Block(t.ID, m, func() bool { return !m.mu.TryLock() })
		if wake == nil {
			return // acquired while registering
		}
		<-wake
	}
}

// Unlock releases the mutex. Threads blocked on it count as running again
// before Unlock returns, so the scheduler never sees a false "no thread can
// run".
func (m *Mutex) Unlock(t *Thread) {
	m.mu.Unlock()
	if t != nil && t.env.ledger != nil {
		t.env.ledger.Release(m)
	}
}
