package sched

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/site"
)

// Config tunes the PM-aware thread scheduling; the algorithm is the one in
// the paper's Figure 6.
type Config struct {
	// Seed seeds the privileged-thread selection.
	Seed int64
}

// DefaultConfig returns the defaults.
func DefaultConfig() Config {
	return Config{Seed: 1}
}

// backstop bounds one cond_wait or writer hold in wall-clock time. It exists
// only for blocking the ledger cannot see — a target waiting on a plain
// sync.Mutex or a channel — and its expiry is counted in Outcome.Backstop.
const backstop = 100 * time.Millisecond

// Outcome summarizes one execution under the PM-aware strategy, feeding the
// per-seed skip bookkeeping (Pitfall-3): when a sync point was disabled, the
// fuzzer saves an increased initial skip so future campaigns on the same seed
// do not block on the same cond_wait executions.
type Outcome struct {
	// CondWaits is the number of cond_wait executions that entered the
	// waiting path.
	CondWaits int
	// Signalled reports whether any cond_signal fired.
	Signalled bool
	// Disabled reports whether the sync point was disabled because a
	// thread waited while no thread could run (or, with Backstop, for the
	// backstop's length).
	Disabled bool
	// Backstop reports that the wall-clock backstop, not the ledger, ended
	// a wait: a cond_wait, which then disabled the sync point, or the
	// writer hold after a signal.
	Backstop bool
	// PrivilegedUsed reports whether a privileged thread was selected
	// because every live thread was in cond_wait (Pitfall-2).
	PrivilegedUsed bool
}

// PMAware is the PM-aware interleaving exploration strategy (paper §4.2.2,
// Figure 6). For the selected priority-queue entry it injects cond_wait
// before the entry's load sites (sync points) and cond_signal after the
// entry's store sites, stalling the writer before its flush so readers
// observe non-persisted data. It decides from a Ledger of thread run states,
// so each pitfall is an event rather than a timeout: cond_wait is a no-op
// once signalled (Pitfall-1); when every live thread is in cond_wait, a
// privileged thread drawn from the seeded RNG bypasses every wait
// (Pitfall-2); when no thread can run and some thread is blocked on a lock,
// the sync point is disabled and the skip count reported in the Outcome
// (Pitfall-3).
type PMAware struct {
	cfg      Config
	entry    *Entry
	initSkip int
	armed    atomic.Bool // true only between BeginExec and EndExec
	rng      *rand.Rand
	ledger   *Ledger

	// Guarded by ledger.mu.
	signalled   bool // the condition variable m of Figure 6
	enabled     bool // sync.is_enabled
	skip        int  // sync.skip
	disabled    bool
	backstopped bool
	privUsed    bool
	waits       int
	// held is closed when every reader the signal released has passed
	// its sync-point load, blocked or exited.
	held chan struct{}
}

// NewPMAware creates the strategy for one campaign targeting the given
// priority-queue entry with the given initial skip count (0 for a fresh
// entry). It keeps a private ledger until UseLedger replaces it.
func NewPMAware(cfg Config, entry *Entry, skip int) *PMAware {
	if cfg == (Config{}) {
		cfg = DefaultConfig()
	}
	p := &PMAware{
		cfg:      cfg,
		entry:    entry,
		initSkip: skip,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		enabled:  true,
		skip:     skip,
	}
	p.UseLedger(NewLedger())
	return p
}

// UseLedger makes the strategy decide from l, which the runtime keeps
// current with lock waits and loads. The runtime calls it, for this type or
// any strategy embedding it, before the first thread starts.
func (p *PMAware) UseLedger(l *Ledger) {
	l.idle = p.settle
	l.passed = p.passed
	p.ledger = l
}

// BeginExec implements Strategy. Hooks are inert until BeginExec so that the
// setup/recovery phase (which runs the same instrumented code) cannot trip
// sync points before worker threads exist.
func (p *PMAware) BeginExec(n int) {
	p.ledger.mu.Lock()
	p.signalled = false
	p.ledger.mu.Unlock()
	p.ledger.expect(n)
	p.armed.Store(true)
}

// ThreadStart implements Strategy.
func (p *PMAware) ThreadStart(t pmem.ThreadID) { p.ledger.start(t) }

// ThreadExit implements Strategy.
func (p *PMAware) ThreadExit(t pmem.ThreadID) { p.ledger.exit(t) }

// BeforeLoad implements Strategy: it injects cond_wait before the entry's
// sync points.
func (p *PMAware) BeforeLoad(t pmem.ThreadID, addr pmem.Addr, s site.ID) {
	if p.entry == nil || !p.armed.Load() || addr != p.entry.Addr {
		return
	}
	if _, ok := p.entry.LoadSites[s]; !ok {
		return
	}
	p.condWait(t)
}

// BeforeStore implements Strategy.
func (p *PMAware) BeforeStore(pmem.ThreadID, pmem.Addr, site.ID) {}

// AfterStore implements Strategy: it fires cond_signal after the entry's
// store sites, before the writer flushes.
func (p *PMAware) AfterStore(t pmem.ThreadID, addr pmem.Addr, s site.ID) {
	if p.entry == nil || !p.armed.Load() || addr != p.entry.Addr {
		return
	}
	if _, ok := p.entry.StoreSites[s]; !ok {
		return
	}
	p.condSignal()
}

// EndExec implements Strategy.
func (p *PMAware) EndExec() { p.armed.Store(false) }

// Description captures the schedule parameters of one PMAware instance for
// forensic bug artifacts: which sync point it targeted and with what skip.
type Description struct {
	Addr        pmem.Addr
	Priority    int
	InitialSkip int
	LoadSites   []site.ID
	StoreSites  []site.ID
}

// Describe returns the strategy's schedule parameters.
func (p *PMAware) Describe() Description {
	d := Description{InitialSkip: p.initSkip}
	if p.entry == nil {
		return d
	}
	d.Addr = p.entry.Addr
	d.Priority = p.entry.Priority
	for s := range p.entry.LoadSites {
		d.LoadSites = append(d.LoadSites, s)
	}
	for s := range p.entry.StoreSites {
		d.StoreSites = append(d.StoreSites, s)
	}
	return d
}

// Outcome returns the campaign summary used for skip bookkeeping.
func (p *PMAware) Outcome() Outcome {
	p.ledger.mu.Lock()
	defer p.ledger.mu.Unlock()
	return Outcome{
		CondWaits:      p.waits,
		Signalled:      p.signalled,
		Disabled:       p.disabled,
		Backstop:       p.backstopped,
		PrivilegedUsed: p.privUsed,
	}
}

// condWait is Figure 6's wait: park until the signal, a privileged election
// or the sync point's disabling releases the thread.
func (p *PMAware) condWait(t pmem.ThreadID) {
	th := p.enterWait(t)
	if th == nil {
		return
	}
	timer := time.NewTimer(backstop)
	defer timer.Stop()
	select {
	case <-th.wake:
	case <-timer.C:
		p.ledger.mu.Lock()
		if th.state == CondWaiting {
			p.disable(true)
		}
		p.ledger.mu.Unlock()
		<-th.wake
	}
}

// enterWait registers t in cond_wait and returns its ledger entry, or nil
// when the wait is a no-op: after the signal, once disabled, for the
// privileged thread, or while sync.skip > 0 (Pitfall-3 bookkeeping from
// earlier campaigns on the same seed). The ledger may release the entry
// before enterWait returns.
func (p *PMAware) enterWait(t pmem.ThreadID) *ledgerThread {
	l := p.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	th := l.thread(t)
	if p.signalled || !p.enabled || th.bypass {
		return nil
	}
	if p.skip > 0 {
		p.skip--
		return nil
	}
	p.waits++
	l.set(th, CondWaiting)
	return th
}

// settle runs when a thread waits at the sync point and no thread can run.
// If some thread is blocked on a lock — typically one a waiter holds — the
// sync point is disabled (Pitfall-3). Otherwise every live thread waits for
// a writer that does not exist, and one of them, drawn from the seeded RNG,
// becomes privileged and bypasses all waits (Pitfall-2).
func (p *PMAware) settle() {
	l := p.ledger
	if l.count[LockBlocked] > 0 {
		p.disable(false)
		return
	}
	var waiting []pmem.ThreadID
	for t, th := range l.threads {
		if th.state == CondWaiting {
			waiting = append(waiting, t)
		}
	}
	slices.Sort(waiting)
	th := l.threads[waiting[p.rng.Intn(len(waiting))]]
	th.bypass = true
	p.privUsed = true
	l.release(th)
}

// disable turns the sync point off for the rest of the campaign and releases
// every waiter. Caller holds the ledger lock.
func (p *PMAware) disable(byBackstop bool) {
	p.enabled = false
	p.disabled = true
	p.backstopped = p.backstopped || byBackstop
	for _, th := range p.ledger.threads {
		if th.state == CondWaiting {
			p.ledger.release(th)
		}
	}
}

// passed closes the writer hold once the released readers are past their
// loads.
func (p *PMAware) passed() {
	if p.held != nil {
		close(p.held)
		p.held = nil
	}
}

// condSignal is Figure 6's signal: set the condition, release the waiting
// readers and hold the writer, before its flush, until each of them has
// executed its sync-point load, blocked or exited. Two refinements over the
// paper's pseudo-code keep the one-shot useful: the signal only fires while a
// reader is actually waiting (a store nobody observes — e.g. the first write
// that creates the shared object — must not burn the campaign's signal), and
// only the first signal holds the writer (Pitfall-1: once m is set, waits are
// disabled).
func (p *PMAware) condSignal() {
	held := p.signal()
	if held == nil {
		return
	}
	timer := time.NewTimer(backstop)
	defer timer.Stop()
	select {
	case <-held:
	case <-timer.C:
		l := p.ledger
		l.mu.Lock()
		if p.held == held {
			p.backstopped = true
			for _, th := range l.threads {
				l.pass(th)
			}
		}
		l.mu.Unlock()
	}
}

// signal sets the condition and releases every waiter, marking each as a
// reader whose sync-point load is ahead. It returns the channel closed when
// they have all passed, or nil when the signal does not fire.
func (p *PMAware) signal() chan struct{} {
	l := p.ledger
	l.mu.Lock()
	defer l.mu.Unlock()
	if p.signalled || l.count[CondWaiting] == 0 {
		return nil
	}
	p.signalled = true
	p.held = make(chan struct{})
	held := p.held
	for _, th := range l.threads {
		if th.state == CondWaiting {
			th.unread = true
			l.unread.Add(1)
			l.release(th)
		}
	}
	return held
}
