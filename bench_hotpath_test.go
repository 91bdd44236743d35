// Microbenchmarks of the fuzzing executor's hot path: the instrumented
// access hooks, the lock-free coverage bitmap, site-ID resolution and the
// dirty-line checkpoint restore. These are the per-operation costs behind
// the campaign throughput that BenchmarkFuzzThroughput measures end to end.
// Run with:
//
//	go test -bench=Hotpath -benchmem
//
// TestHotpathBenchJSON (gated behind PMRACE_BENCH=1) reruns the suite plus a
// Workers=1/2/4/8 throughput sweep and writes the results to
// BENCH_hotpath.json for tracking across revisions.
package pmrace_test

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/taint"
)

const (
	hotPoolSize  = 1 << 20 // 1 MiB pool
	hotAddrWords = 1 << 15 // working set: 32Ki words = 256 KiB
)

func newHotThread() *rt.Thread {
	env := rt.NewEnv(pmem.New(hotPoolSize), rt.Config{})
	return env.Spawn()
}

// BenchmarkHotpathHookStore64 measures one instrumented 8-byte store: site
// resolution, alias-pair accessor swap, dirty marking and shadow-label
// update — the cost every PM write in a fuzzed execution pays.
func BenchmarkHotpathHookStore64(b *testing.B) {
	th := newHotThread()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := pmem.Addr(i%hotAddrWords) * 8
		th.Store64(addr, uint64(i), taint.None, taint.None)
	}
}

// BenchmarkHotpathHookStore64Tainted measures a labelled store whose finding
// the detector already holds — the steady state of every durable side effect
// a target repeats: label expansion, the still-dirty check and a dedup hit,
// with no stack walk.
func BenchmarkHotpathHookStore64Tainted(b *testing.B) {
	env := rt.NewEnv(pmem.New(hotPoolSize), rt.Config{})
	w, r := env.Spawn(), env.Spawn()
	w.Store64(64, 7, taint.None, taint.None)
	v, lab := r.Load64(64)
	store := func() { r.Store64(512, v, lab, taint.None) }
	store() // records the finding
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store()
	}
}

// BenchmarkHotpathSyncStore measures a store to an annotated lock word with
// 64 segment locks registered (CCEH's shape): the sync-variable lookup and a
// dedup hit on every value change.
func BenchmarkHotpathSyncStore(b *testing.B) {
	const locks = 64
	env := rt.NewEnv(pmem.New(hotPoolSize), rt.Config{})
	for i := 0; i < locks; i++ {
		env.AnnotateSyncVar(core.SyncVar{Name: "segment-lock", Addr: pmem.Addr(i) * 256, Size: 8})
	}
	th := env.Spawn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each visit to a lock word flips it, so every store is a
		// value change the checker must look up.
		th.Store64(pmem.Addr(i%locks)*256, uint64(i/locks)&1, taint.None, taint.None)
	}
}

// BenchmarkHotpathHookLoad64 is the load-side analogue: metadata and shadow
// inspection plus the dirty-read candidate check.
func BenchmarkHotpathHookLoad64(b *testing.B) {
	th := newHotThread()
	for i := 0; i < hotAddrWords; i++ {
		th.Store64(pmem.Addr(i)*8, uint64(i), taint.None, taint.None)
	}
	// Persist the working set so the loads measure the clean-word fast path,
	// not the dirty-read candidate machinery.
	th.Persist(0, hotAddrWords*8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := pmem.Addr(i%hotAddrWords) * 8
		th.Load64(addr)
	}
}

// BenchmarkHotpathBitmapSet measures the lock-free coverage bitmap's Set on
// a rolling hash stream (mostly new bits early, mostly duplicate bits once
// the map saturates — the steady-state fuzzing mix).
func BenchmarkHotpathBitmapSet(b *testing.B) {
	bm := cover.NewBitmap()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.Set(cover.EdgeHash(uint32(i), uint32(i>>3)))
	}
}

// BenchmarkHotpathBitmapMerge measures merging a worker's per-execution
// bitmap into the campaign-global map (one call per execution).
func BenchmarkHotpathBitmapMerge(b *testing.B) {
	global := cover.NewBitmap()
	local := cover.NewBitmap()
	for i := 0; i < 4096; i++ {
		local.Set(cover.EdgeHash(uint32(i), uint32(i*7)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		global.Merge(local)
	}
}

// BenchmarkHotpathRegistryHere measures site resolution through the shared
// registry's lock-free read path (published PC map hit).
func BenchmarkHotpathRegistryHere(b *testing.B) {
	site.Here(0) // warm the registry
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		site.Here(0)
	}
}

// BenchmarkHotpathSiteCacheHere measures resolution through a per-thread
// direct-mapped PC cache, the path the hooks actually take.
func BenchmarkHotpathSiteCacheHere(b *testing.B) {
	c := site.NewCache()
	c.Here(0) // warm the cache slot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Here(0)
	}
}

// BenchmarkHotpathRestoreDirty measures the dirty-line checkpoint restore:
// the executor's steady state, where each execution dirties a small working
// set of a large pool and Restore copies back only those lines.
func BenchmarkHotpathRestoreDirty(b *testing.B) {
	base := pmem.New(8 << 20)
	snap := base.Snapshot()
	p := pmem.NewFromSnapshot(snap)
	p.Restore(snap) // bind the pool to the snapshot
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for l := 0; l < 64; l++ {
			p.Store64(0, 1, pmem.Addr(l)*4096, uint64(i))
		}
		p.Restore(snap)
	}
}

// BenchmarkHotpathRestoreFull is the contrast case: restoring from a
// snapshot the pool is not based on copies the whole image.
func BenchmarkHotpathRestoreFull(b *testing.B) {
	base := pmem.New(8 << 20)
	snapA := base.Snapshot()
	snapB := base.Snapshot()
	p := pmem.NewFromSnapshot(snapA)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate snapshots so every restore misses the dirty-line path.
		if i%2 == 0 {
			p.Restore(snapB)
		} else {
			p.Restore(snapA)
		}
	}
}

// hotpathThroughput runs reduced P-CLHT campaigns and returns the median
// execs/sec of three runs. The budget is long enough (600 executions) for
// the campaign to drain its interleaving queue more than once: shorter runs
// measure only the seed tier and never see the steady state where
// equivalence pruning pays for itself. Campaign throughput is scheduling-
// noisy on a shared box, so a median of three is reported rather than a
// single sample.
func hotpathThroughput(workers int) (float64, error) {
	var samples []float64
	for rep := 0; rep < 3; rep++ {
		fz, err := fuzz.New("pclht", fuzz.Options{
			MaxExecs: 600,
			Duration: 240 * time.Second,
			Workers:  workers,
			Seed:     1,
		})
		if err != nil {
			return 0, err
		}
		res, err := fz.Run()
		if err != nil {
			return 0, err
		}
		samples = append(samples, res.ExecsPerSec)
	}
	sort.Float64s(samples)
	return samples[1], nil
}

// benchHost identifies where a BENCH file was measured, so numbers from two
// revisions are only compared when they come from comparable hosts.
type benchHost struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentHost() benchHost {
	h := benchHost{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// TestHotpathBenchJSON regenerates BENCH_hotpath.json: the microbenchmark
// numbers above plus the Workers=1/2/4/8 campaign throughput sweep. Gated
// because it runs the full sweep (~15s).
func TestHotpathBenchJSON(t *testing.T) {
	if os.Getenv("PMRACE_BENCH") != "1" {
		t.Skip("set PMRACE_BENCH=1 to regenerate BENCH_hotpath.json")
	}
	micro := map[string]func(*testing.B){
		"hook_store64":         BenchmarkHotpathHookStore64,
		"hook_store64_tainted": BenchmarkHotpathHookStore64Tainted,
		"sync_store":           BenchmarkHotpathSyncStore,
		"hook_load64":          BenchmarkHotpathHookLoad64,
		"bitmap_set":           BenchmarkHotpathBitmapSet,
		"bitmap_merge":         BenchmarkHotpathBitmapMerge,
		"registry_here":        BenchmarkHotpathRegistryHere,
		"site_cache_here":      BenchmarkHotpathSiteCacheHere,
		"restore_dirty":        BenchmarkHotpathRestoreDirty,
		"restore_full":         BenchmarkHotpathRestoreFull,
	}
	type microResult struct {
		NsPerOp     float64 `json:"ns_per_op"`
		AllocsPerOp int64   `json:"allocs_per_op"`
	}
	out := struct {
		Date       string                 `json:"date"`
		Host       benchHost              `json:"host"`
		Micro      map[string]microResult `json:"micro"`
		Throughput []map[string]float64   `json:"throughput_pclht"`
	}{
		Date:  time.Now().UTC().Format(time.RFC3339),
		Host:  currentHost(),
		Micro: make(map[string]microResult),
	}
	for name, fn := range micro {
		r := testing.Benchmark(fn)
		out.Micro[name] = microResult{
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
		}
		t.Logf("%-16s %10.1f ns/op %4d allocs/op", name, out.Micro[name].NsPerOp, r.AllocsPerOp())
	}
	for _, workers := range []int{1, 2, 4, 8} {
		eps, err := hotpathThroughput(workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		out.Throughput = append(out.Throughput, map[string]float64{
			"workers":       float64(workers),
			"execs_per_sec": eps,
		})
		t.Logf("workers=%d %.2f execs/s", workers, eps)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("BENCH_hotpath.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	fmt.Println("wrote BENCH_hotpath.json")
}
