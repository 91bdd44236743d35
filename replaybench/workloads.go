package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/pmrace-go/pmrace/internal/workload"
)

// Fuzzer defaults the corpus is generated with (fuzz.Options.withDefaults):
// four driver threads, a 16-key space and 48 operations per seed.
const (
	driverThreads = 4
	keySpace      = 16
	opsPerSeed    = 48
)

// workloadSpec fixes how a workload's corpus is generated and replayed.
type workloadSpec struct {
	name   string
	target string
	// inFlight is the closed loop's concurrency: how many executions the
	// replay keeps running at once.
	inFlight int
	// seedCount is the number of workload seeds a recording holds; the
	// generators below are used in turn.
	seedCount int
	gens      []func(g generators) *workload.Seed
	// baseExecs is the number of plain executions per seed (the fuzzer's
	// execution tier).
	baseExecs int
	// entries is the number of top queue entries of each seed's serial
	// statistics pass that run under sched.PMAware, once per scheduler
	// seed. Zero keeps every execution under sched.None.
	entries    int
	schedSeeds int
	// maxCrashStates caps the crash states enumerated per finding.
	maxCrashStates int
	// replaySeconds is the wall time of one untraced replay on the
	// reference host (README.md, Sizing). It fixes how many replays a run
	// of a given length makes, so every run of the workload reduces the
	// same number of replays whatever the speed of the code under test.
	replaySeconds float64
}

// replays returns how many untraced replays a run of the given length
// makes: the replays that fit on the reference host, at least one.
func (w workloadSpec) replays(seconds float64) int {
	return max(1, int(math.Round(seconds/w.replaySeconds)))
}

// generators holds the fuzzer's two seed generators, both seeded from the
// benchmark seed.
type generators struct {
	ops   *workload.Generator
	proto *workload.ProtoGen
}

// seeds generates the workload seeds from the benchmark seed.
func (w workloadSpec) seeds(seed int64) []*workload.Seed {
	g := generators{
		ops:   workload.NewGenerator(seed, keySpace, driverThreads),
		proto: workload.NewProtoGen(seed, keySpace, driverThreads),
	}
	out := make([]*workload.Seed, w.seedCount)
	for i := range out {
		out[i] = w.gens[i%len(w.gens)](g)
	}
	return out
}

// The three workloads stress different layers; README.md explains the
// choice and which metric each per-layer counter should move.
var workloads = []workloadSpec{
	{
		// Sched stalls, spin-lock hangs and the bucket-lock OnSyncStore
		// scan concentrate on P-CLHT under PM-aware scheduling. It is run
		// by hand, not from BENCHMARK.json: its timing-dependent 80 ms
		// hangs spread cpu_s and exec_p90_ms across runs beyond the
		// benchmark's bounds (README.md, Sizing).
		name:      "pclht-pmaware",
		target:    "pclht",
		inFlight:  1,
		seedCount: 192,
		gens: []func(g generators) *workload.Seed{
			func(g generators) *workload.Seed { return g.ops.NewSeed(opsPerSeed) },
			func(g generators) *workload.Seed { return g.ops.PopulationSeed(opsPerSeed * 2) },
			func(g generators) *workload.Seed { return g.ops.HotKeySeed(opsPerSeed) },
		},
		baseExecs:      1,
		entries:        1,
		schedSeeds:     2,
		maxCrashStates: 1,
		replaySeconds:  4.5,
	},
	{
		// CCEH annotates a lock per segment, so every sync-variable store
		// scans a list that grows with the table: the OnSyncStore cost,
		// with detector and hooks around it, and no scheduler or hang
		// timeout in the way (its lock bug shows only after a crash).
		name:      "cceh-plain",
		target:    "cceh",
		inFlight:  1,
		seedCount: 384,
		gens: []func(g generators) *workload.Seed{
			func(g generators) *workload.Seed { return g.ops.NewSeed(opsPerSeed) },
			func(g generators) *workload.Seed { return g.ops.PopulationSeed(opsPerSeed * 2) },
			func(g generators) *workload.Seed { return g.ops.HotKeySeed(opsPerSeed) },
		},
		baseExecs:      2,
		maxCrashStates: 1,
		replaySeconds:  1.3,
	},
	{
		// sched.None bypasses the scheduler entirely, so a scheduler
		// change must not move this workload; hooks, batch drains and
		// checkpoint restore carry the work.
		name:      "memcached-plain",
		target:    "memcached",
		inFlight:  2,
		seedCount: 640,
		gens: []func(g generators) *workload.Seed{
			func(g generators) *workload.Seed { return g.ops.NewSeed(opsPerSeed) },
			func(g generators) *workload.Seed { return g.ops.HotKeySeed(opsPerSeed) },
		},
		baseExecs:      2,
		maxCrashStates: 1,
		replaySeconds:  0.65,
	},
	{
		// Protocol traffic with mid-request crash points: crash images and
		// FromImage recovery instead of restore, the wire parser, and the
		// multi-state validator get their largest share here.
		name:      "pmwal-proto",
		target:    "pmwal",
		inFlight:  1,
		seedCount: 24,
		gens: []func(g generators) *workload.Seed{
			func(g generators) *workload.Seed { return g.proto.MixSeed(driverThreads*2, opsPerSeed/2) },
			func(g generators) *workload.Seed { return g.proto.HotSeed(driverThreads*2, opsPerSeed/2) },
		},
		baseExecs:      1,
		entries:        1,
		schedSeeds:     2,
		maxCrashStates: 4,
		replaySeconds:  2.5,
	},
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	sort.Strings(names)
	return workloadSpec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
