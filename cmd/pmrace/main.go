// Command pmrace fuzzes one of the bundled concurrent PM systems (or any
// registered target) with PM-aware coverage-guided fuzzing and prints the
// detected bugs, inconsistency statistics and detailed reports.
//
// Usage:
//
//	pmrace -target pclht -execs 120 -workers 4
//	pmrace -target pclht -execs 50 -json > trace.jsonl
//	pmrace -target pclht -http :8080 -artifacts ./bugs -duration 10m
//	pmrace -target memcached -mode delay -duration 30s -progress
//	pmrace -artifact ./bugs/0001-sync
//	pmrace -list
//
// Against a pmraced control plane (see cmd/pmraced), the subcommands drive
// campaigns remotely over the versioned REST API:
//
//	pmrace submit -server http://host:7762 -target pclht -execs 500 -wait
//	pmrace status -server http://host:7762 [-id c0001]
//	pmrace cancel -server http://host:7762 -id c0001 -wait
//	pmrace logs   -server http://host:7762 -id c0001
//	pmrace trace  -server http://host:7762 c0001 > timeline.json
//
// submit takes the same campaign-spec flags, with the same defaults, as a
// local run (-target, -mode, -workers, -execs, ...; see specFlags).
//
// With -json the typed event stream (exec_done, seed_accepted,
// inconsistency_found, validation_verdict, bug_confirmed, campaign_done,
// ...) goes to stdout as JSON lines and the human summary moves to stderr.
// -http serves live introspection (/metrics, /status, /events, /healthz,
// /debug/pprof) while the campaign runs; -artifacts writes a replayable
// forensic bundle per confirmed bug, and -artifact replays one.
// Ctrl-C cancels the campaign's context: workers stop within one execution
// and the partial results are reported.
//
// Exit codes: 0 — clean campaign (or successful replay/reproduction);
// 1 — the campaign confirmed bugs (or a replay failed to reproduce);
// 2 — usage or runtime error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/site"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// specFlags registers a flag for every api.CampaignSpec field except
// Artifacts, whose flag means a directory locally and a bool on submit.
// Local runs and `pmrace submit` share it, and the defaults are the
// engine's own (fuzz.Defaults), so a flag means the same thing, and has the
// same default, on both surfaces.
func specFlags(fs *flag.FlagSet) *api.CampaignSpec {
	d := fuzz.Defaults()
	s := new(api.CampaignSpec)
	fs.StringVar(&s.Target, "target", "pclht", "target system to fuzz")
	fs.StringVar(&s.Mode, "mode", "", "exploration: pmrace | delay | none (empty: pmrace)")
	fs.IntVar(&s.Workers, "workers", d.Workers, "concurrent fuzzing workers (on pmraced, charged against the server's worker budget)")
	fs.IntVar(&s.Threads, "threads", d.Threads, "driver threads per execution")
	fs.IntVar(&s.MaxExecs, "execs", d.MaxExecs, "execution budget")
	fs.DurationVar(&s.Duration, "duration", d.Duration, "wall-clock budget")
	fs.Int64Var(&s.Seed, "seed", d.Seed, "random seed")
	fs.IntVar(&s.KeySpace, "key-space", d.KeySpace, "workload key-space size")
	fs.IntVar(&s.OpsPerSeed, "ops-per-seed", d.OpsPerSeed, "operations per generated seed")
	fs.BoolVar(&s.Protocol, "proto", d.Protocol, "fuzz through memcached text-protocol byte streams instead of synthetic op vectors")
	fs.IntVar(&s.MaxCrashStates, "max-crash-states", d.MaxCrashStates, "crash states validated per finding (1 = the paper's single adversarial image)")
	fs.BoolVar(&s.InlineValidation, "inline-validation", d.InlineValidation, "validate findings on the discovering worker instead of the asynchronous pool")
	fs.BoolVar(&s.EADR, "eadr", d.EADR, "model battery-backed caches (stores durable at visibility)")
	fs.BoolVar(&s.NoCheckpoints, "no-checkpoints", d.NoCheckpoints, "disable in-memory pool checkpoints")
	fs.BoolVar(&s.ArtifactsAll, "artifacts-all", d.ArtifactAll, "with -artifacts: also bundle validated/whitelisted false positives")
	fs.IntVar(&s.TraceSample, "trace-sample", 0, "span sampling: N>0 traces every Nth execution, negative disables tracing, 0 keeps the default (locally off unless -trace, then 8; pmraced: the server's rate)")
	return s
}

// localFlags are a local campaign's flags: the shared spec flags plus the
// ones that only make sense in-process.
type localFlags struct {
	spec                                                  *api.CampaignSpec
	list, trace, jsonOut, progress, verbose               *bool
	corpus, replay, artifact, artifacts, http, aliasHints *string
	valWorkers                                            *int
	valWallTimeout                                        *time.Duration
}

func newLocalFlags(stderr io.Writer) (*flag.FlagSet, *localFlags) {
	d := fuzz.Defaults()
	fs := flag.NewFlagSet("pmrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs, &localFlags{
		spec:           specFlags(fs),
		list:           fs.Bool("list", false, "list registered targets and exit"),
		corpus:         fs.String("corpus", "", "seed-corpus directory (loaded at start, improving seeds saved back)"),
		replay:         fs.String("replay", "", "replay one saved .seed file against the target and exit"),
		artifact:       fs.String("artifact", "", "replay one forensic bug bundle directory and exit (0 = reproduced)"),
		artifacts:      fs.String("artifacts", "", "write a forensic bundle per confirmed bug into this directory"),
		http:           fs.String("http", "", "serve live introspection (/metrics /status /events /trace /healthz /debug/pprof) on this address"),
		trace:          fs.Bool("trace", false, "record a span timeline (flight recorder + Chrome trace-event export on /trace)"),
		jsonOut:        fs.Bool("json", false, "stream the event trace as JSONL to stdout (summary goes to stderr)"),
		progress:       fs.Bool("progress", false, "render a 1 Hz status line while fuzzing"),
		verbose:        fs.Bool("v", false, "print full per-inconsistency reports"),
		aliasHints:     fs.String("alias-hints", "", "pmvet alias-pair report (pmvet -alias out.json) used to prioritize the interleaving queue"),
		valWorkers:     fs.Int("validate-workers", d.ValidationWorkers, "asynchronous post-failure validation workers"),
		valWallTimeout: fs.Duration("validate-wall-timeout", d.ValidationWallTimeout, "wall-clock bound per recovery run in post-failure validation"),
	}
}

// run is main with an exit code: 0 clean campaign, 1 confirmed bugs,
// 2 usage/runtime error. args excludes the program name.
func run(args []string, stdout, stderr io.Writer) int {
	// The pmraced subcommands (submit/status/cancel/logs/trace) drive a
	// remote control plane; everything else is the local flag CLI.
	if len(args) > 0 {
		switch args[0] {
		case "submit", "status", "cancel", "logs", "trace":
			return runRemote(args[0], args[1:], stdout, stderr)
		}
	}
	fs, f := newLocalFlags(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	spec := f.spec

	if *f.list {
		fmt.Fprintln(stdout, "registered targets:")
		for _, n := range pmrace.Targets() {
			fmt.Fprintln(stdout, "  "+n)
		}
		return 0
	}

	if *f.artifact != "" {
		return replayArtifact(stdout, stderr, *f.artifact, spec.Target)
	}

	if *f.replay != "" {
		if err := replaySeed(stdout, spec.Target, *f.replay, spec.Threads); err != nil {
			fmt.Fprintf(stderr, "pmrace: replay: %v\n", err)
			return 2
		}
		return 0
	}

	var options []pmrace.CampaignOption
	if *f.trace {
		// Before WithSpec, so an explicit -trace-sample overrides the rate.
		options = append(options, pmrace.WithTracing(0))
	}
	options = append(options,
		pmrace.WithSpec(*spec),
		pmrace.WithCorpusDir(*f.corpus),
		pmrace.WithValidationWorkers(*f.valWorkers),
		pmrace.WithValidationWallTimeout(*f.valWallTimeout),
	)
	if *f.aliasHints != "" {
		hints, err := pmrace.LoadAliasHints(*f.aliasHints)
		if err != nil {
			fmt.Fprintf(stderr, "pmrace: %v\n", err)
			return 2
		}
		options = append(options, pmrace.WithAliasHints(hints))
	}
	if *f.artifacts != "" {
		options = append(options, pmrace.WithArtifacts(*f.artifacts))
	}
	if *f.http != "" {
		options = append(options, pmrace.WithHTTPAddr(*f.http))
	}
	// The human-readable stream: stdout normally, stderr when stdout
	// carries the JSONL trace.
	out := stdout
	if *f.jsonOut {
		out = stderr
		options = append(options, pmrace.WithJSONTrace(stdout))
	}
	if *f.progress {
		options = append(options, pmrace.WithProgress(out))
	}

	// Ctrl-C cancels the campaign context: workers finish their current
	// execution and stop; partial results are still reported below.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	c, err := pmrace.NewCampaign(ctx, spec.Target, options...)
	if err != nil {
		fmt.Fprintf(stderr, "pmrace: %v\n", err)
		return 2
	}
	opts := c.Options()
	fmt.Fprintf(out, "fuzzing %s (%s exploration, %d workers, budget %d execs / %s)\n",
		spec.Target, opts.Mode, opts.Workers, opts.MaxExecs, opts.Duration)
	if addr := c.HTTPAddr(); addr != "" {
		fmt.Fprintf(out, "introspection: http://%s/status\n", addr)
	}
	// Drain the event stream until the campaign closes it; sinks (-json)
	// run independently of this loop.
	for range c.Events() {
	}
	res, err := c.Wait()
	if err != nil {
		fmt.Fprintf(stderr, "pmrace: %v\n", err)
		return 2
	}
	if ctx.Err() != nil {
		fmt.Fprintf(out, "\ninterrupted — partial results\n")
	}

	fmt.Fprintf(out, "\n%d executions over %d seeds in %s (%.1f exec/s)\n",
		res.Execs, res.Seeds, res.Elapsed.Round(time.Millisecond), res.ExecsPerSec)
	fmt.Fprintf(out, "coverage: %d branch bits, %d PM alias pair bits\n", res.BranchCov, res.AliasCov)
	c2 := res.Counts
	fmt.Fprintf(out, "candidates: %d inter, %d intra\n", c2.InterCandidates, c2.IntraCandidates)
	fmt.Fprintf(out, "inconsistencies: %d inter (%d validated FP, %d whitelisted FP), %d intra, %d sync (%d FP)\n",
		c2.Inter, c2.InterValidated, c2.InterWhitelist, c2.Intra, c2.Sync, c2.SyncValidated)

	fmt.Fprintf(out, "\nunique bugs (%d):\n", len(res.Bugs))
	for _, b := range res.Bugs {
		fmt.Fprintf(out, "  [%s] %s — %s\n", b.Kind, site.Lookup(b.GroupSite), b.Summary)
	}
	for _, o := range res.DB.Others() {
		fmt.Fprintf(out, "  [Other] %s — %s: %s\n", site.Lookup(o.Site), o.Kind, o.Description)
	}

	if *f.verbose {
		fmt.Fprintln(out, "\ndetailed reports:")
		for _, j := range res.DB.Inconsistencies() {
			fmt.Fprintln(out, core.FormatInconsistency(j))
		}
		for _, j := range res.DB.Syncs() {
			fmt.Fprintln(out, core.FormatSync(j))
		}
	}

	if len(res.Bugs) > 0 || len(res.DB.Others()) > 0 {
		return 1
	}
	return 0
}
