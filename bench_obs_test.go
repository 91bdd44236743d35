// Microbenchmarks of the observability overheads on the hook hot path: the
// PM access trace ring (tracing on vs. off, single- and multi-threaded) and
// the Prometheus exposition renderer. The trace ring runs inside every
// instrumented load/store when TraceDepth > 0, so its cost directly bounds
// forensic-mode campaign throughput.
//
// Run with:
//
//	go test -bench=Obs -benchmem
//
// TestObsBenchJSON (gated behind PMRACE_BENCH=1) reruns the suite and writes
// BENCH_obs.json for tracking across revisions.
package pmrace_test

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/obs"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// newObsThread builds a hook thread with the given trace depth (0 = tracing
// off), mirroring the executor's forensic configuration (TraceDepth 64).
func newObsEnv(traceDepth int) *rt.Env {
	return rt.NewEnv(pmem.New(hotPoolSize), rt.Config{TraceDepth: traceDepth})
}

// BenchmarkObsHookStore64Untraced is the no-tracing contrast case: the same
// instrumented store as BenchmarkHotpathHookStore64.
func BenchmarkObsHookStore64Untraced(b *testing.B) {
	th := newObsEnv(0).Spawn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := pmem.Addr(i%hotAddrWords) * 8
		th.Store64(addr, uint64(i), taint.None, taint.None)
	}
}

// BenchmarkObsHookStore64Traced measures one instrumented store with the
// access trace ring enabled at the executor's depth.
func BenchmarkObsHookStore64Traced(b *testing.B) {
	th := newObsEnv(64).Spawn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := pmem.Addr(i%hotAddrWords) * 8
		th.Store64(addr, uint64(i), taint.None, taint.None)
	}
}

// BenchmarkObsHookLoad64Traced is the load-side analogue over a persisted
// working set (clean-word fast path plus the trace append).
func BenchmarkObsHookLoad64Traced(b *testing.B) {
	th := newObsEnv(64).Spawn()
	for i := 0; i < hotAddrWords; i++ {
		th.Store64(pmem.Addr(i)*8, uint64(i), taint.None, taint.None)
	}
	th.Persist(0, hotAddrWords*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := pmem.Addr(i%hotAddrWords) * 8
		th.Load64(addr)
	}
}

// BenchmarkObsHookStore64TracedParallel measures the traced store hook under
// goroutine parallelism: 4 hook threads hammering disjoint address ranges,
// the pattern PR 1's lock-free work parallelized and a single-mutex trace
// ring re-serializes.
func BenchmarkObsHookStore64TracedParallel(b *testing.B) {
	const threads = 4
	env := newObsEnv(64)
	ths := make([]*rt.Thread, threads)
	for i := range ths {
		ths[i] = env.Spawn()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / threads
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			th := ths[t]
			base := pmem.Addr(t) * (hotPoolSize / threads)
			span := uint64(hotPoolSize / threads / 8)
			for i := 0; i < per; i++ {
				addr := base + pmem.Addr(uint64(i)%span)*8
				th.Store64(addr, uint64(i), taint.None, taint.None)
			}
		}(t)
	}
	wg.Wait()
}

// BenchmarkObsTraceSnapshot measures draining the ring into chronological
// order, the per-detection cost of attaching interleaving evidence.
func BenchmarkObsTraceSnapshot(b *testing.B) {
	env := newObsEnv(64)
	th := env.Spawn()
	for i := 0; i < 512; i++ {
		th.Store64(pmem.Addr(i%64)*8, uint64(i), taint.None, taint.None)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(env.RecentAccesses()) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkObsSpanDisabled measures the span-subsystem cost with tracing
// disabled: Start must be one atomic load plus a branch, End a nil check —
// zero allocations. This is the price every instrumented call site pays in an
// untraced campaign.
func BenchmarkObsSpanDisabled(b *testing.B) {
	tr := obs.NewTracer(nil, 8)
	tr.SetEnabled(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(1, obs.SpanExecRun)
		sp.End()
	}
}

// BenchmarkObsSpanSampled measures the steady-state cost of the default
// sampled configuration: every call pays the Sample() atomic, one in 8 pays
// the full span record.
func BenchmarkObsSpanSampled(b *testing.B) {
	tr := obs.NewTracer(obs.NewRegistry(), 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lane := -1
		if tr.Sample() {
			lane = 1
		}
		sp := tr.Start(lane, obs.SpanExecRun)
		sp.End()
	}
}

// BenchmarkObsSpanEnabled measures the full span record: clock reads, flight
// ring insert and histogram observe. This is what a sampled execution pays
// per span.
func BenchmarkObsSpanEnabled(b *testing.B) {
	tr := obs.NewTracer(obs.NewRegistry(), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Start(1, obs.SpanExecRun)
		sp.End()
	}
}

// BenchmarkObsFlightSnapshot measures merging a full flight recorder into
// start order — the anomaly-dump / timeline-export path.
func BenchmarkObsFlightSnapshot(b *testing.B) {
	tr := obs.NewTracer(nil, 1)
	for i := 0; i < 8192; i++ {
		sp := tr.Start(1, obs.SpanExecRun)
		sp.End()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(tr.Spans()) == 0 {
			b.Fatal("empty recorder")
		}
	}
}

// TestObsBenchJSON regenerates BENCH_obs.json with the tracing-overhead
// numbers. Gated like TestHotpathBenchJSON.
func TestObsBenchJSON(t *testing.T) {
	if os.Getenv("PMRACE_BENCH") != "1" {
		t.Skip("set PMRACE_BENCH=1 to regenerate BENCH_obs.json")
	}
	micro := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"hook_store64_untraced", BenchmarkObsHookStore64Untraced},
		{"hook_store64_traced", BenchmarkObsHookStore64Traced},
		{"hook_load64_traced", BenchmarkObsHookLoad64Traced},
		{"hook_store64_traced_parallel4", BenchmarkObsHookStore64TracedParallel},
		{"trace_snapshot", BenchmarkObsTraceSnapshot},
		{"span_disabled", BenchmarkObsSpanDisabled},
		{"span_sampled_rate8", BenchmarkObsSpanSampled},
		{"span_enabled", BenchmarkObsSpanEnabled},
		{"span_flight_snapshot", BenchmarkObsFlightSnapshot},
	}
	type microResult struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	out := struct {
		Date     string                 `json:"date"`
		Host     benchHost              `json:"host"`
		Note     string                 `json:"note"`
		Baseline map[string]float64     `json:"baseline_single_mutex_ns"`
		Micro    map[string]microResult `json:"micro"`
	}{
		Date: time.Now().UTC().Format(time.RFC3339),
		Host: currentHost(),
		Note: "trace ring sharded per-thread (per-shard mutex + atomic global seq ticket), merged by Seq in snapshot; baseline_single_mutex_ns measured on the pre-sharding global-mutex ring on the same host. Hook store/load with tracing improve via the per-Thread cached shard pointer (no modulo/ring indirection per access); the ring-add micro pays ~4ns for the global order ticket (see internal/rt BenchmarkTraceAdd* for the in-binary A/B) but no longer serializes concurrent workers. span_* rows cover the span-tracing subsystem: span_disabled is the per-call-site cost in an untraced campaign (one atomic load, 0 allocs — the PM access hooks are never on the span path at all), span_sampled_rate8 the steady-state default, span_enabled one full span record, span_flight_snapshot the anomaly-dump/export merge of a full 4096-span recorder.",
		Baseline: map[string]float64{
			"hook_store64_untraced":         225.4,
			"hook_store64_traced":           243.2,
			"hook_load64_traced":            231.3,
			"hook_store64_traced_parallel4": 233.0,
			"trace_snapshot":                352.8,
		},
		Micro: make(map[string]microResult),
	}
	for _, m := range micro {
		r := testing.Benchmark(m.fn)
		out.Micro[m.name] = microResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}
		t.Logf("%-30s %10.1f ns/op %4d allocs/op", m.name, out.Micro[m.name].NsPerOp, r.AllocsPerOp())
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_obs.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_obs.json")
}
