// Command replaybench replays a recorded exec corpus through the fuzzing
// executor and reports the wall and CPU time to confirm a target's seeded
// bugs on fixed work, plus a per-layer split from a separate traced run.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash replaybench/run.sh --workload pclht-pmaware --seed 1 --seconds 30 --trace 0
//	bash replaybench/run.sh --record --workload pmwal-proto --seed 7
//
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"github.com/pmrace-go/pmrace/internal/cover"
)

// recordingsDir holds the checked-in recordings, relative to the
// repository root the benchmark runs from.
var recordingsDir = filepath.Join("replaybench", "recordings")

// setupRounds is how many times a run sets the workload up; setup_s is the
// median.
const setupRounds = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's parsed flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	record   bool
}

func run(args []string, stdout, stderr io.Writer) int {
	var cfg config
	fs := flag.NewFlagSet("replaybench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to replay")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 0, "seconds to measure, as BENCHMARK.json's run_seconds (required)")
	fs.IntVar(&cfg.trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.BoolVar(&cfg.record, "record", false, "write the recording for -workload and -seed, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := lookupWorkload(cfg.workload)
	if err != nil {
		fmt.Fprintln(stderr, "replaybench:", err)
		return 2
	}
	if cfg.trace != 0 && cfg.trace != 1 {
		fmt.Fprintln(stderr, "replaybench: -trace must be 0 or 1")
		return 2
	}
	if !cfg.record && cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "replaybench: -seconds must be given and positive")
		return 2
	}
	if cfg.record {
		if err := writeRecording(cfg, spec, stderr); err != nil {
			fmt.Fprintln(stderr, "replaybench:", err)
			return 1
		}
		return 0
	}
	res, src, err := measure(cfg, spec, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "replaybench:", err)
		return 1
	}
	hb, _ := json.Marshal(map[string]any{"host": host("."), "workload": spec.name, "seed": cfg.seed, "recording": src})
	fmt.Fprintln(stdout, string(hb))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "replaybench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// writeRecording records the workload seed into the recordings directory.
func writeRecording(cfg config, spec workloadSpec, stderr io.Writer) error {
	rec, err := record(spec, cfg.seed)
	if err != nil {
		return err
	}
	data, err := encodeRecording(rec)
	if err != nil {
		return err
	}
	path := recordingPath(recordingsDir, spec.name, cfg.seed)
	if err := os.MkdirAll(recordingsDir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "recorded %s: %d seeds, %d executions, %d wire commands\n", path, len(rec.Seeds), len(rec.Execs), rec.Commands)
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure sets the workload up setupRounds times, then replays the
// recording a fixed number of times for the run's length (spec.replays; a
// traced run makes half as many rounds of an untraced and a traced replay)
// and checks every replay. It also returns where the recording came from.
func measure(cfg config, spec workloadSpec, stderr io.Writer) (*result, recordingSource, error) {
	data, src, err := loadRecording(recordingsDir, spec, cfg.seed)
	if err != nil {
		return nil, src, err
	}
	if src.File == "" {
		fmt.Fprintf(stderr, "no checked-in recording for %s seed %d; recorded it in-process (sha256 %s)\n", spec.name, cfg.seed, src.SHA256)
	}
	traced := cfg.trace == 1
	var setups []float64
	var b *bench
	for i := 0; i < setupRounds; i++ {
		debug.FreeOSMemory() // the previous round's garbage is not this round's cost
		start := time.Now()
		b, err = setup(data, traced)
		if err != nil {
			return nil, src, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if b.rec.Workload != spec.name {
		return nil, src, fmt.Errorf("recording is for workload %s, not %s", b.rec.Workload, spec.name)
	}

	var (
		plain, tracedRuns []replayStats
		problems          []string
		cov               = cover.New()
	)
	rounds := spec.replays(cfg.seconds)
	if traced {
		rounds = max(1, rounds/2)
	}
	for i := 0; i < rounds; i++ {
		rs := b.replay(false, nil)
		problems = append(problems, b.check(rs)...)
		plain = append(plain, rs)
		if traced {
			rs := b.replay(true, cov)
			problems = append(problems, b.check(rs)...)
			tracedRuns = append(tracedRuns, rs)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	var durs []float64
	for _, rs := range append(append([]replayStats(nil), plain...), tracedRuns...) {
		res.Attempted += rs.execs
		res.Failed += rs.failed
		for _, e := range rs.errs {
			problems = append(problems, "execution failed: "+e.Error())
		}
	}
	for _, rs := range plain {
		for _, d := range rs.durations {
			durs = append(durs, float64(d)/1e6)
		}
	}
	wall := func(rs []replayStats) float64 {
		return median(collect(rs, func(r replayStats) float64 { return r.wall.Seconds() }))
	}
	cpu := func(rs []replayStats) float64 {
		return median(collect(rs, func(r replayStats) float64 { return r.cpu.Seconds() }))
	}
	if traced {
		res.Metrics = layerMetrics(tracedRuns, cov)
		tw, tc := wall(tracedRuns), cpu(tracedRuns)
		res.Metrics["trace.wall_s"] = metric{tw, "s"}
		res.Metrics["trace.cpu_s"] = metric{tc, "s"}
		res.Metrics["trace.wall_ratio"] = metric{tw / wall(plain), "ratio"}
		res.Metrics["trace.cpu_ratio"] = metric{tc / cpu(plain), "ratio"}
	} else {
		res.Metrics["wall_s"] = metric{wall(plain), "s"}
		res.Metrics["cpu_s"] = metric{cpu(plain), "s"}
		res.Metrics["exec_p50_ms"] = metric{median(collect(plain, execQuantile(0.5))), "ms"}
		res.Metrics["exec_p90_ms"] = metric{median(collect(plain, execQuantile(0.9))), "ms"}
		res.Metrics["peak_mem_mb"] = metric{median(collect(plain, func(r replayStats) float64 { return float64(r.peakMem) / (1 << 20) })), "MiB"}
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	}
	problems = dedup(problems)
	res.Correct = len(problems) == 0
	for _, p := range problems {
		fmt.Fprintln(stderr, "check failed:", p)
	}
	summarize(stderr, spec, b, plain, tracedRuns, durs)
	return res, src, nil
}

// execQuantile returns the q-quantile of a replay's execution durations, in
// milliseconds. The run reports the median over replays of each replay's
// quantile, so one disturbed replay cannot move it.
func execQuantile(q float64) func(replayStats) float64 {
	return func(r replayStats) float64 {
		ms := make([]float64, len(r.durations))
		for i, d := range r.durations {
			ms[i] = float64(d) / 1e6
		}
		return quantile(ms, q)
	}
}

// check verifies one replay: the recorded amount of work ran without
// failures, and the confirmed bugs match the target's seeded inventory.
// The wire-command count re-parses the recorded streams, so it guards the
// recording and the parser; the executor's own work is checked in traced
// replays, where every execution without a hang must run exactly the
// recorded number of target operations.
func (b *bench) check(rs replayStats) []string {
	var p []string
	if done := rs.execs - rs.failed; done != len(b.rec.Execs) {
		p = append(p, fmt.Sprintf("%d executions completed, recording has %d", done, len(b.rec.Execs)))
	}
	if rs.layers.wireCmds != int64(b.rec.Commands) {
		p = append(p, fmt.Sprintf("%d wire commands parsed, recording has %d", rs.layers.wireCmds, b.rec.Commands))
	}
	if n := rs.layers.opsMismatch; n > 0 {
		p = append(p, fmt.Sprintf("%d executions ran a different number of target operations than their seed drives", n))
	}
	return append(p, checkInventory(b.rec.Target, rs.bugs)...)
}

// layerMetrics reduces the traced replays to per-layer medians.
func layerMetrics(rs []replayStats, cov *cover.Coverage) map[string]metric {
	m := map[string]metric{}
	put := func(name, unit string, f func(l layerStats) float64) {
		m[name] = metric{median(collect(rs, func(r replayStats) float64 { return f(r.layers) })), unit}
	}
	i := func(v int64) float64 { return float64(v) }
	put("fuzz.overhead_ns", "ns", func(l layerStats) float64 { return i(l.runNS - l.recoverNS - l.workloadNS) })
	put("fuzz.crash_images", "count", func(l layerStats) float64 { return i(l.crashImages) })
	put("fuzz.crash_failures", "count", func(l layerStats) float64 { return i(l.crashFailures) })
	put("targets.recover_ns", "ns", func(l layerStats) float64 { return i(l.recoverNS) })
	put("targets.exec_ns", "ns", func(l layerStats) float64 { return i(l.execNS) })
	put("targets.ops", "count", func(l layerStats) float64 { return i(l.ops) })
	put("sched.cond_wait_ns", "ns", func(l layerStats) float64 { return i(l.condWaitNS) })
	put("sched.writer_wait_ns", "ns", func(l layerStats) float64 { return i(l.writerWaitNS) })
	put("sched.cond_waits", "count", func(l layerStats) float64 { return i(l.condWaits) })
	put("sched.signalled_execs", "count", func(l layerStats) float64 { return i(l.signalled) })
	put("sched.disabled_execs", "count", func(l layerStats) float64 { return i(l.disabled) })
	put("sched.privileged_execs", "count", func(l layerStats) float64 { return i(l.privileged) })
	put("rt.hangs", "count", func(l layerStats) float64 { return i(l.hangs) })
	put("rt.hung_ns", "ns", func(l layerStats) float64 { return i(l.hungNS) })
	put("rt.compute_ns", "ns", func(l layerStats) float64 { return i(l.computeNS) })
	put("core.candidates", "count", func(l layerStats) float64 { return i(l.candidates) })
	put("core.inconsistencies", "count", func(l layerStats) float64 { return i(l.inconsistencies) })
	put("core.syncs", "count", func(l layerStats) float64 { return i(l.syncs) })
	put("core.redundant", "count", func(l layerStats) float64 { return i(l.redundant) })
	put("core.known_findings", "count", func(l layerStats) float64 { return i(l.known) })
	put("core.unique_bugs", "count", func(l layerStats) float64 { return i(l.uniqueBugs) })
	put("pmem.crash_states", "states/finding", func(l layerStats) float64 {
		if l.captured == 0 {
			return 0
		}
		return float64(l.crashStates) / float64(l.captured)
	})
	br, al := cov.Counts()
	m["cover.alias_bits"] = metric{float64(al), "count"}
	m["cover.branch_bits"] = metric{float64(br), "count"}
	put("validate.calls", "count", func(l layerStats) float64 { return i(l.valCalls) })
	put("validate.ns", "ns", func(l layerStats) float64 { return i(l.valNS) })
	put("validate.states", "count", func(l layerStats) float64 { return i(l.valStates) })
	put("validate.bugs", "count", func(l layerStats) float64 { return i(l.valBugs) })
	put("validate.fps", "count", func(l layerStats) float64 { return i(l.valFPs) })
	put("wire.cmds", "count", func(l layerStats) float64 { return i(l.wireCmds) })
	put("wire.malformed", "count", func(l layerStats) float64 { return i(l.wireMalformed) })
	put("wire.parse_ns", "ns", func(l layerStats) float64 { return i(l.wireParseNS) })
	return m
}

func collect(rs []replayStats, f func(replayStats) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

func dedup(s []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range s {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// summarize writes a human-readable account of the run to stderr.
func summarize(w io.Writer, spec workloadSpec, b *bench, plain, traced []replayStats, durs []float64) {
	fmt.Fprintf(w, "%s: %d executions per replay, %d untraced and %d traced replays, %d exec samples\n",
		spec.name, len(b.rec.Execs), len(plain), len(traced), len(durs))
	var qs []string
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.8, 0.85, 0.9, 0.95, 0.99} {
		qs = append(qs, fmt.Sprintf("p%g=%.2f", q*100, quantile(durs, q)))
	}
	fmt.Fprintf(w, "untraced exec ms: %s\n", strings.Join(qs, " "))
	var walls []string
	for _, rs := range plain {
		walls = append(walls, fmt.Sprintf("%.3f", rs.wall.Seconds()))
	}
	fmt.Fprintf(w, "untraced replay wall seconds: %s\n", strings.Join(walls, " "))
	var pcts []string
	for _, rs := range plain {
		pcts = append(pcts, fmt.Sprintf("%.2f/%.2f", execQuantile(0.5)(rs), execQuantile(0.9)(rs)))
	}
	fmt.Fprintf(w, "untraced replay exec p50/p90 ms: %s\n", strings.Join(pcts, " "))
	bugs := map[string]int{}
	for _, rs := range append(append([]replayStats(nil), plain...), traced...) {
		for _, bug := range rs.bugs {
			bugs[bugKey(bug)]++
		}
	}
	var keys []string
	for k := range bugs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var parts []string
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s x%d", k, bugs[k]))
	}
	fmt.Fprintf(w, "confirmed unique bugs (replays confirming): %s\n", strings.Join(parts, ", "))
}
