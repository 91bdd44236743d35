package main

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// The traced run times the program's layers from outside: a target wrapper
// times Exec, a PMAware wrapper times the two hooks that stall, and the
// benchmark times its own calls into validate and wire. Nothing here runs
// in an untraced replay.

// layerClock accumulates one traced replay's target-layer timings.
type layerClock struct {
	execNS    atomic.Int64 // wall time inside Target.Exec, summed over threads
	ops       atomic.Int64 // Target.Exec calls
	hungNS    atomic.Int64 // Exec time, minus sched stall, of calls ending in rt.HangError
	computeNS atomic.Int64 // Exec time, minus sched stall, of calls that returned

	mu     sync.Mutex
	phases []*phase
}

// phase is the workload phase of one execution: from the first Exec call's
// start to the last Exec call's end on the execution's target instance.
type phase struct {
	mu          sync.Mutex
	first, last time.Time
}

func (p *phase) mark(start, end time.Time) {
	p.mu.Lock()
	if p.first.IsZero() || start.Before(p.first) {
		p.first = start
	}
	if end.After(p.last) {
		p.last = end
	}
	p.mu.Unlock()
}

// workloadNS sums the workload phases of every target instance that ran
// operations. Instances built for checkpoints or recovery never call Exec.
func (c *layerClock) workloadNS() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, p := range c.phases {
		if !p.first.IsZero() {
			n += int64(p.last.Sub(p.first))
		}
	}
	return n
}

// timedFactory wraps a target factory so every instance reports its Exec
// time to the clock current at creation and counts its Exec calls in ops.
// The executor creates one instance per execution, which is what makes a
// phase per execution.
func timedFactory(f targets.Factory, clock *atomic.Pointer[layerClock], ops *atomic.Int64) targets.Factory {
	return func() targets.Target {
		c := clock.Load()
		p := &phase{}
		c.mu.Lock()
		c.phases = append(c.phases, p)
		c.mu.Unlock()
		return &timedTarget{Target: f(), clock: c, phase: p, ops: ops}
	}
}

// timedTarget times Exec calls of the wrapped target.
type timedTarget struct {
	targets.Target
	clock *layerClock
	phase *phase
	ops   *atomic.Int64
}

// Exec implements targets.Target.
func (t *timedTarget) Exec(th *rt.Thread, op workload.Op) error {
	stall0 := threadStall(th)
	start := time.Now()
	defer func() {
		end := time.Now()
		d := int64(end.Sub(start))
		t.phase.mark(start, end)
		t.clock.execNS.Add(d)
		t.clock.ops.Add(1)
		t.ops.Add(1)
		own := d - (threadStall(th) - stall0)
		if r := recover(); r != nil {
			if _, ok := r.(rt.HangError); ok {
				t.clock.hungNS.Add(own)
			}
			panic(r)
		}
		t.clock.computeNS.Add(own)
	}()
	return t.Target.Exec(th, op)
}

// threadStall returns the sched stall the thread has accumulated so far in
// its execution, zero when the execution is not PM-aware.
func threadStall(th *rt.Thread) int64 {
	if p, ok := th.Env().Strategy().(*timedPMAware); ok {
		return p.stall[int(th.ID)%len(p.stall)].Load()
	}
	return 0
}

// timedPMAware times the PM-aware strategy's two stalling hooks:
// BeforeLoad (cond_wait, including its polls and MaxWait) and AfterStore
// (cond_signal's WriterWait). It must only wrap *sched.PMAware: rt takes a
// fast path on sched.None that any wrapper would defeat, and the executor
// disables statistics only for a bare *sched.PMAware, so wrapped runs use an
// executor built with statistics off. Read Outcome from the embedded
// strategy: ExecResult.Outcome is only set for a bare one.
type timedPMAware struct {
	*sched.PMAware
	condWaitNS   atomic.Int64
	writerWaitNS atomic.Int64
	// stall is the per-thread stall, indexed by thread ID; executions have
	// one recovery thread plus at most driverThreads workers.
	stall [16]atomic.Int64
}

// BeforeLoad implements sched.Strategy.
func (p *timedPMAware) BeforeLoad(t pmem.ThreadID, addr pmem.Addr, s site.ID) {
	start := time.Now()
	p.PMAware.BeforeLoad(t, addr, s)
	d := int64(time.Since(start))
	p.condWaitNS.Add(d)
	p.stall[int(t)%len(p.stall)].Add(d)
}

// AfterStore implements sched.Strategy.
func (p *timedPMAware) AfterStore(t pmem.ThreadID, addr pmem.Addr, s site.ID) {
	start := time.Now()
	p.PMAware.AfterStore(t, addr, s)
	d := int64(time.Since(start))
	p.writerWaitNS.Add(d)
	p.stall[int(t)%len(p.stall)].Add(d)
}

var _ sched.Strategy = (*timedPMAware)(nil)
