// Package pmrace is a Go reproduction of PMRace — "Efficiently Detecting
// Concurrency Bugs in Persistent Memory Programs" (Chen, Hua, Zhang, Ding;
// ASPLOS 2022) — the first PM-specific concurrency bug detector.
//
// PMRace finds two new classes of persistent-memory concurrency bugs:
//
//   - PM Inter-thread Inconsistency: one thread makes durable side effects
//     (PM writes) based on data another thread wrote but has not yet flushed
//     to the persistence domain; a crash in the window loses the dependency
//     and leaves PM inconsistent (data loss, corrupted indexes).
//   - PM Synchronization Inconsistency: synchronization variables (locks)
//     persisted to PM are restored after a crash while the threads that held
//     them are not, hanging post-recovery execution.
//
// The detector drives PM-aware coverage-guided fuzzing: a priority queue of
// shared PM addresses selects sync points; conditional waits stall readers
// until a writer leaves data dirty; shadow-memory taint analysis confirms
// durable side effects; and a post-failure validation stage replays each
// detected inconsistency's adversarial crash image through the target's
// recovery code to filter false positives.
//
// Everything the original built on LLVM instrumentation and Optane hardware
// is reproduced in-process: a simulated persistent memory pool with
// cache-line flush semantics (CLWB/SFENCE/non-temporal stores), an explicit
// hook runtime standing in for compiler instrumentation, and Go
// re-implementations of the five evaluated PM systems with the paper's bug
// inventory seeded at the corresponding algorithmic locations. See DESIGN.md
// for the substitution table and EXPERIMENTS.md for reproduced evaluation
// results.
//
// # Quick start
//
// A fuzzing run is a Campaign: it starts immediately, streams typed events
// (executions, accepted seeds, inconsistencies, validation verdicts,
// confirmed bugs) while in flight, answers live statistics snapshots, and
// stops within one execution when its context is cancelled:
//
//	c, err := pmrace.NewCampaign(ctx, "pclht",
//		pmrace.WithWorkers(8),
//		pmrace.WithBudget(500, 2*time.Minute))
//	if err != nil { ... }
//	for ev := range c.Events() {
//		if bug, ok := ev.(*pmrace.BugConfirmed); ok {
//			fmt.Println("bug:", bug.Summary)
//		}
//	}
//	res, _ := c.Wait()
//
// # Migrating from Fuzz
//
// The old blocking pmrace.Fuzz(target, opts) call has been removed; replace
//
//	res, err := pmrace.Fuzz("pclht", pmrace.Options{MaxExecs: 100, Workers: 8})
//
// with
//
//	c, err := pmrace.NewCampaign(ctx, "pclht",
//		pmrace.WithBudget(100, 0), pmrace.WithWorkers(8))
//	if err != nil { ... }
//	res, err := c.Wait()
//
// and attach pmrace.WithJSONTrace / pmrace.WithProgress / pmrace.WithSink
// for observability the old API could not offer. Campaigns can also run as
// a service: cmd/pmraced schedules many concurrent campaigns over a shared
// worker budget behind a versioned REST API (package api defines the wire
// contract, package client consumes it).
//
// # Testing your own PM data structure
//
// Implement Target against the hook runtime (every PM access goes through a
// Thread handle), register it, and fuzz it:
//
//	pmrace.RegisterTarget("mystruct", func() pmrace.Target { return NewMyStruct() })
//	c, _ := pmrace.NewCampaign(ctx, "mystruct")
//	res, _ := c.Wait()
package pmrace

import (
	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/workload"

	// The evaluated PM systems register themselves.
	_ "github.com/pmrace-go/pmrace/internal/targets/cceh"
	_ "github.com/pmrace-go/pmrace/internal/targets/clevel"
	_ "github.com/pmrace-go/pmrace/internal/targets/fastfair"
	_ "github.com/pmrace-go/pmrace/internal/targets/memcached"
	_ "github.com/pmrace-go/pmrace/internal/targets/pclht"
	_ "github.com/pmrace-go/pmrace/internal/targets/pmwal"
)

// Core fuzzing API.
type (
	// Options configure a fuzzing run; the zero value selects the
	// evaluation defaults (4 driver threads, PM-aware exploration,
	// in-memory checkpoints).
	Options = fuzz.Options
	// Result aggregates a fuzzing run: unique bugs, judged
	// inconsistencies, coverage, detection-time series.
	Result = fuzz.Result
	// ExploreMode selects PM-aware exploration, random delay injection,
	// or no scheduling.
	ExploreMode = fuzz.ExploreMode
	// Mutator generates new seeds from a corpus.
	Mutator = fuzz.Mutator
	// AliasHint is one statically inferred load/store site pair from
	// `pmvet -alias`, used to prioritize the interleaving queue.
	AliasHint = fuzz.AliasHint
)

// LoadAliasHints reads a pmvet alias-pair report (`pmvet -alias out.json`)
// into scheduler hints for WithAliasHints.
func LoadAliasHints(path string) ([]AliasHint, error) { return fuzz.LoadAliasHints(path) }

// Exploration modes.
const (
	ModePMAware  = fuzz.ModePMAware
	ModeDelayInj = fuzz.ModeDelayInj
	ModeNone     = fuzz.ModeNone
)

// Detection results.
type (
	// UniqueBug is the paper's unit of bug counting: inconsistencies
	// grouped by the store instruction that produced the non-persisted
	// data, or synchronization inconsistencies grouped by variable.
	UniqueBug = core.UniqueBug
	// Inconsistency is one confirmed durable side effect based on
	// non-persisted data.
	Inconsistency = core.Inconsistency
	// SyncInconsistency is one persisted-synchronization-variable update.
	SyncInconsistency = core.SyncInconsistency
	// SyncVar is a pm_sync_var_hint-style annotation.
	SyncVar = core.SyncVar
	// Kind classifies findings (inter/intra/sync, candidates).
	Kind = core.Kind
	// Status is the post-failure verdict (bug / validated FP /
	// whitelisted FP).
	Status = core.Status
	// Whitelist holds developer-specified benign patterns.
	Whitelist = core.Whitelist
)

// Finding kinds and verdicts.
const (
	KindInter = core.KindInter
	KindIntra = core.KindIntra
	KindSync  = core.KindSync

	StatusPending       = core.StatusPending
	StatusBug           = core.StatusBug
	StatusValidatedFP   = core.StatusValidatedFP
	StatusWhitelistedFP = core.StatusWhitelistedFP
)

// Instrumentation runtime, for writing targets.
type (
	// Target is a PM system under test.
	Target = targets.Target
	// Factory creates fresh target instances per campaign.
	Factory = targets.Factory
	// Env is one instrumented execution environment.
	Env = rt.Env
	// Thread is the per-thread hook handle; every PM access of an
	// instrumented program goes through it.
	Thread = rt.Thread
	// Pool is the simulated persistent memory pool.
	Pool = pmem.Pool
	// Op is one key-value operation of the workload model.
	Op = workload.Op
	// Seed is a fuzzer input: operations distributed over threads.
	Seed = workload.Seed
)

// RegisterTarget adds a PM system to the registry so campaigns can run it.
func RegisterTarget(name string, factory Factory) { targets.Register(name, factory) }

// Targets lists the registered PM systems.
func Targets() []string { return targets.Names() }

// NewPool creates a simulated PM pool of the given size.
func NewPool(size uint64) *Pool { return pmem.New(size) }

// PoolFromImage re-maps a crash image, as recovery does after a restart.
func PoolFromImage(img []byte) *Pool { return pmem.FromImage(img) }

// NewEnv creates an instrumented execution environment over a pool with
// default configuration (no scheduling, detection enabled). Use it to write
// and unit-test instrumented PM code directly.
func NewEnv(pool *Pool) *Env { return rt.NewEnv(pool, rt.Config{}) }

// FormatInconsistency renders a detailed bug report with stack traces.
func FormatInconsistency(j *core.JudgedInconsistency) string {
	return core.FormatInconsistency(j)
}
