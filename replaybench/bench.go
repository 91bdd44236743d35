package main

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/pmdk"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/validate"
	"github.com/pmrace-go/pmrace/internal/workload"

	// Registered targets the workloads replay.
	_ "github.com/pmrace-go/pmrace/internal/targets/cceh"
	_ "github.com/pmrace-go/pmrace/internal/targets/memcached"
	_ "github.com/pmrace-go/pmrace/internal/targets/pclht"
	_ "github.com/pmrace-go/pmrace/internal/targets/pmwal"
)

// targetFactory returns a factory for a registered target.
func targetFactory(name string) (targets.Factory, error) {
	if _, err := targets.New(name); err != nil {
		return nil, err
	}
	return func() targets.Target {
		t, _ := targets.New(name) // registered: checked above
		return t
	}, nil
}

// plannedExec is a recorded execution with its schedule resolved.
type plannedExec struct {
	seed      *workload.Seed
	entry     *sched.Entry // nil: plain execution under sched.None
	skip      int
	schedSeed int64
	// ops is the number of target operations the seed drives: what a
	// traced execution without a hang must run.
	ops int
}

// executors is one executor per execution kind. Plain executions collect
// access statistics, as in the fuzzer; interleaved ones do not, because the
// executor only switches statistics off for a bare *sched.PMAware and the
// traced run wraps it.
type executors struct {
	plain, inter *fuzz.Executor
	// ops counts the target operations the traced executors ran; nil for
	// untraced ones.
	ops *atomic.Int64
}

func (e executors) forExec(p plannedExec) *fuzz.Executor {
	if p.entry == nil {
		return e.plain
	}
	return e.inter
}

// bench is a workload set up for replay.
type bench struct {
	rec       *Recording
	factory   targets.Factory
	whitelist *core.Whitelist
	execs     []plannedExec

	// db is the current replay's result database; the executors' known-
	// finding predicates read it.
	db atomic.Pointer[core.DB]
	// mergeMu serializes merging an execution's findings into db.
	mergeMu sync.Mutex
	// clock is the current traced replay's target-layer clock.
	clock atomic.Pointer[layerClock]

	untraced executors
	// traced holds one traced executor set per in-flight worker, so a
	// worker's operation counter covers only its own executions.
	traced []executors
}

// setup parses the recording, warms the site registry with the serial pass
// over every recorded seed, resolves the schedules, and builds every
// executor's checkpoint.
func setup(data []byte, withTraced bool) (*bench, error) {
	rec, err := decodeRecording(data)
	if err != nil {
		return nil, err
	}
	factory, err := targetFactory(rec.Target)
	if err != nil {
		return nil, err
	}
	b := &bench{rec: rec, factory: factory}
	b.db.Store(core.NewDB())
	b.clock.Store(&layerClock{})

	wl := core.NewWhitelist(pmdk.DefaultWhitelist()...)
	if w, ok := factory().(interface{ Whitelist() []string }); ok {
		wl.Add(w.Whitelist()...)
	}
	b.whitelist = wl

	// The warm-up is the recorder's serial pass over every seed a
	// schedule runs on: it reaches every site the recorder saw.
	scheduled := make([]bool, len(rec.Seeds))
	for _, ex := range rec.Execs {
		scheduled[ex.Seed] = scheduled[ex.Seed] || ex.Schedule.Mode == "pmaware"
	}
	snap, err := checkpoint(factory)
	if err != nil {
		return nil, err
	}
	seeds := make([]*workload.Seed, len(rec.Seeds))
	ops := make([]int, len(rec.Seeds))
	for i, text := range rec.Seeds {
		s := decodeSeed(text)
		if s.Empty() {
			return nil, fmt.Errorf("recording seed %d decodes to no work", i)
		}
		seeds[i] = s
		ops[i] = seedOps(s)
		if !scheduled[i] {
			continue
		}
		if _, err := serialPass(factory, snap, s); err != nil {
			return nil, fmt.Errorf("warm-up over seed %d: %w", i, err)
		}
	}
	idx := siteIndex()
	for i, ex := range rec.Execs {
		p := plannedExec{seed: seeds[ex.Seed], schedSeed: ex.SchedSeed, skip: ex.Schedule.Skip, ops: ops[ex.Seed]}
		if ex.Schedule.Mode == "pmaware" {
			loads, err := resolveSites(idx, ex.Schedule.LoadSites)
			if err != nil {
				return nil, fmt.Errorf("recording exec %d: load %w", i, err)
			}
			stores, err := resolveSites(idx, ex.Schedule.StoreSites)
			if err != nil {
				return nil, fmt.Errorf("recording exec %d: store %w", i, err)
			}
			p.entry = &sched.Entry{
				Addr:       pmem.Addr(ex.Schedule.Addr),
				LoadSites:  loads,
				StoreSites: stores,
				Priority:   ex.Schedule.Priority,
			}
		}
		b.execs = append(b.execs, p)
	}

	b.untraced = b.newExecutors(factory, nil)
	all := []executors{b.untraced}
	if withTraced {
		for w := 0; w < rec.InFlight; w++ {
			ops := new(atomic.Int64)
			xs := b.newExecutors(timedFactory(factory, &b.clock, ops), ops)
			b.traced = append(b.traced, xs)
			all = append(all, xs)
		}
	}
	// One plain run per executor builds its checkpoint and primes its pool
	// cache, so no replay pays for either.
	for _, xs := range all {
		for _, x := range []*fuzz.Executor{xs.plain, xs.inter} {
			if _, err := runExec(x, seeds[0], sched.None{}); err != nil {
				return nil, fmt.Errorf("checkpoint: %w", err)
			}
		}
	}
	return b, nil
}

// execOptions returns the executor options of the fuzzer's defaults for
// this recording, with statistics as requested.
func (b *bench) execOptions(collectStats bool) fuzz.ExecOptions {
	return fuzz.ExecOptions{
		HangTimeout:        hangTimeout,
		UseCheckpoints:     true,
		CollectStats:       collectStats,
		MaxCrashStates:     b.rec.MaxCrashStates,
		KnownInconsistency: func(k [3]uint32) bool { return b.db.Load().HasInconsistency(k) },
		KnownSync:          func(si *core.SyncInconsistency) bool { return b.db.Load().HasSync(si) },
	}
}

func (b *bench) newExecutors(f targets.Factory, ops *atomic.Int64) executors {
	return executors{
		plain: fuzz.NewExecutor(f, b.execOptions(true)),
		inter: fuzz.NewExecutor(f, b.execOptions(false)),
		ops:   ops,
	}
}

// seedOps returns the number of target operations a seed drives: its
// operation vector, or the operations of its parsed protocol streams.
func seedOps(s *workload.Seed) int {
	n := 0
	if s.Proto != nil {
		for _, ops := range parseStreams(s).threads {
			n += len(ops)
		}
		return n
	}
	for _, ops := range s.Split() {
		n += len(ops)
	}
	return n
}

// runExec runs one execution, turning a panic on the calling goroutine into
// an error.
func runExec(x *fuzz.Executor, seed *workload.Seed, strat sched.Strategy) (res *fuzz.ExecResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("execution panicked: %v", r)
		}
	}()
	return x.Run(seed, strat)
}

// strategyFor builds an execution's strategy. Plain executions always get
// the bare sched.None; traced interleaved executions get the timing wrapper
// around the PM-aware strategy, which the second result exposes.
func strategyFor(p plannedExec, traced bool) (sched.Strategy, *sched.PMAware, *timedPMAware) {
	if p.entry == nil {
		return sched.None{}, nil, nil
	}
	cfg := sched.DefaultConfig()
	cfg.Seed = p.schedSeed
	pm := sched.NewPMAware(cfg, p.entry, p.skip)
	if !traced {
		return pm, pm, nil
	}
	tw := &timedPMAware{PMAware: pm}
	return tw, pm, tw
}

// replayStats is what one replay of the recording measured.
type replayStats struct {
	wall, cpu time.Duration
	peakMem   uint64          // resident runtime memory, sampled after each execution
	durations []time.Duration // ExecResult.Duration per execution
	execs     int
	failed    int
	errs      []error
	bugs      []core.UniqueBug
	layers    layerStats // untraced replays fill only the check inputs
}

// layerStats are one replay's per-layer sums.
type layerStats struct {
	runNS, recoverNS, workloadNS                                   int64
	execNS, ops, hungNS, computeNS                                 int64
	condWaitNS, writerWaitNS                                       int64
	condWaits, signalled, disabled, privileged                     int64
	hangs, crashImages, crashFailures                              int64
	opsMismatch                                                    int64
	candidates, inconsistencies, syncs, redundant, known, captured int64
	crashStates                                                    int64
	valCalls, valNS, valStates, valBugs, valFPs                    int64
	wireCmds, wireMalformed, wireParseNS                           int64
	uniqueBugs                                                     int64
}

// add folds one execution's counts into the sums.
func (l *layerStats) add(o layerStats) {
	l.runNS += o.runNS
	l.recoverNS += o.recoverNS
	l.condWaitNS += o.condWaitNS
	l.writerWaitNS += o.writerWaitNS
	l.condWaits += o.condWaits
	l.signalled += o.signalled
	l.disabled += o.disabled
	l.privileged += o.privileged
	l.hangs += o.hangs
	l.opsMismatch += o.opsMismatch
	l.crashImages += o.crashImages
	l.crashFailures += o.crashFailures
	l.candidates += o.candidates
	l.inconsistencies += o.inconsistencies
	l.syncs += o.syncs
	l.redundant += o.redundant
	l.known += o.known
	l.captured += o.captured
	l.crashStates += o.crashStates
	l.valCalls += o.valCalls
	l.valNS += o.valNS
	l.valStates += o.valStates
	l.valBugs += o.valBugs
	l.valFPs += o.valFPs
	l.wireCmds += o.wireCmds
	l.wireMalformed += o.wireMalformed
	l.wireParseNS += o.wireParseNS
}

// replay runs every recorded execution once through a closed loop of
// rec.InFlight workers, validating each first-seen finding inline and
// merging it into a fresh result database, as the fuzzer does.
func (b *bench) replay(traced bool, cov *cover.Coverage) replayStats {
	// Collect the previous replay's garbage and return it to the OS outside
	// the timed interval, so each replay starts from the same memory state
	// and its peak is its own.
	debug.FreeOSMemory()
	db := core.NewDB()
	b.db.Store(db)
	clock := &layerClock{}
	b.clock.Store(clock)

	var (
		mu  sync.Mutex
		out replayStats
		wg  sync.WaitGroup
		nxt atomic.Int64
	)
	out.durations = make([]time.Duration, 0, len(b.execs))
	cpu0 := cpuTime()
	start := time.Now()
	for w := 0; w < b.rec.InFlight; w++ {
		xs := b.untraced
		if traced {
			xs = b.traced[w]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			mem := newMemSampler()
			for {
				i := int(nxt.Add(1) - 1)
				if i >= len(b.execs) {
					return
				}
				ls, d, err := b.runOne(xs, b.execs[i], traced, db, cov)
				peak := mem.resident()
				mu.Lock()
				out.peakMem = max(out.peakMem, peak)
				out.execs++
				if err != nil {
					out.failed++
					out.errs = append(out.errs, err)
				} else {
					out.durations = append(out.durations, d)
					out.layers.add(ls)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.cpu = cpuTime() - cpu0
	out.bugs = db.UniqueBugs()
	out.layers.uniqueBugs = int64(len(out.bugs))
	if traced {
		out.layers.execNS = clock.execNS.Load()
		out.layers.ops = clock.ops.Load()
		out.layers.hungNS = clock.hungNS.Load()
		out.layers.computeNS = clock.computeNS.Load()
		out.layers.workloadNS = clock.workloadNS()
	} else {
		// The wire-command count is a correctness check on every run;
		// untraced replays parse after the timed interval.
		for _, p := range b.execs {
			if p.seed.Proto != nil {
				ps := parseStreams(p.seed)
				out.layers.wireCmds += int64(ps.cmds)
				out.layers.wireMalformed += int64(ps.malformed)
			}
		}
	}
	return out
}

// runOne runs one execution and its post-failure stage.
func (b *bench) runOne(xs executors, p plannedExec, traced bool, db *core.DB, cov *cover.Coverage) (layerStats, time.Duration, error) {
	var ls layerStats
	if traced && p.seed.Proto != nil {
		t0 := time.Now()
		ps := parseStreams(p.seed)
		ls.wireParseNS = int64(time.Since(t0))
		ls.wireCmds = int64(ps.cmds)
		ls.wireMalformed = int64(ps.malformed)
	}
	strat, pm, tw := strategyFor(p, traced)
	var ops0 int64
	if xs.ops != nil {
		ops0 = xs.ops.Load()
	}
	res, err := runExec(xs.forExec(p), p.seed, strat)
	if err != nil {
		return ls, 0, err
	}
	if xs.ops != nil {
		// The worker runs its executions one at a time, so the counter's
		// growth is this execution's operations. A hung thread abandons
		// the rest of its operations; every other execution runs them all.
		ran := xs.ops.Load() - ops0
		if ran > int64(p.ops) || (len(res.Hangs) == 0 && ran != int64(p.ops)) {
			ls.opsMismatch++
		}
	}
	ls.runNS = int64(res.Duration)
	ls.recoverNS = int64(res.SetupDuration)
	if pm != nil {
		o := pm.Outcome()
		ls.condWaits = int64(o.CondWaits)
		ls.signalled = b2i(o.Signalled)
		ls.disabled = b2i(o.Disabled)
		ls.privileged = b2i(o.PrivilegedUsed)
	}
	if tw != nil {
		ls.condWaitNS = tw.condWaitNS.Load()
		ls.writerWaitNS = tw.writerWaitNS.Load()
	}
	ls.hangs = int64(len(res.Hangs))
	ls.crashImages = int64(len(res.CrashImages))
	ls.crashFailures = int64(len(res.CrashFailures))
	ls.candidates = int64(len(res.Candidates))
	ls.inconsistencies = int64(len(res.Inconsistencies))
	ls.syncs = int64(len(res.Syncs))
	ls.redundant = int64(len(res.Redundant))
	if cov != nil {
		cov.Merge(res.Coverage)
	}

	vopts := validate.Options{HangTimeout: hangTimeout, Whitelist: b.whitelist}
	judge := func(r validate.Result, start time.Time) {
		ls.valCalls++
		ls.valNS += int64(time.Since(start))
		ls.valStates += int64(len(r.States))
		switch r.Status {
		case core.StatusBug:
			ls.valBugs++
		case core.StatusValidatedFP, core.StatusWhitelistedFP:
			ls.valFPs++
		}
	}
	// Merge under mergeMu and snapshot each new finding before releasing
	// it: the DB keeps the merged record as its canonical copy and bumps
	// its count when a concurrent execution merges a duplicate.
	type job struct {
		in     *core.Inconsistency
		j      *core.JudgedInconsistency
		si     *core.SyncInconsistency
		js     *core.JudgedSync
		states []pmem.CrashState
	}
	var jobs []job
	var recycle [][]pmem.CrashState
	count := func(states []pmem.CrashState) {
		if states == nil {
			ls.known++ // capture skipped: the DB already held the fingerprint
		} else {
			ls.captured++
			ls.crashStates += int64(len(states))
		}
	}
	b.mergeMu.Lock()
	for _, c := range res.Inconsistencies {
		count(c.States)
		if j, isNew := db.MergeInconsistency(c.In); isNew {
			in := *c.In
			jobs = append(jobs, job{in: &in, j: j, states: c.States})
		} else {
			recycle = append(recycle, c.States)
		}
	}
	for _, c := range res.Syncs {
		count(c.States)
		if j, isNew := db.MergeSync(c.Si); isNew {
			si := *c.Si
			jobs = append(jobs, job{si: &si, js: j, states: c.States})
		} else {
			recycle = append(recycle, c.States)
		}
	}
	b.mergeMu.Unlock()
	for _, states := range recycle {
		pmem.RecycleStates(states)
	}
	for _, jb := range jobs {
		t0 := time.Now()
		var r validate.Result
		if jb.in != nil {
			r = validate.Inconsistency(b.factory, jb.states, jb.in, vopts)
			db.Judge(jb.j, r.Status)
		} else {
			r = validate.Sync(b.factory, jb.states, jb.si, vopts)
			db.JudgeSync(jb.js, r.Status)
		}
		judge(r, t0)
		pmem.RecycleStates(jb.states)
	}
	return ls, res.Duration, nil
}

func b2i(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
