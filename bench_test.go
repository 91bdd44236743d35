// Benchmarks regenerating each table and figure of the paper's evaluation
// (§6). Every benchmark runs the corresponding experiment harness at a
// reduced budget and reports the headline quantities as custom metrics; the
// full-budget rows printed in EXPERIMENTS.md come from `go run
// ./cmd/pmexperiments -all`. Run with:
//
//	go test -bench=. -benchmem
package pmrace_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/experiments"
	"github.com/pmrace-go/pmrace/internal/fuzz"
)

// benchConfig is a reduced-budget configuration so one benchmark iteration
// stays in the seconds range.
func benchConfig() experiments.Config {
	cfg := experiments.Quick()
	cfg.ExecsPerTarget = 16
	cfg.Workers = 2
	return cfg
}

// BenchmarkTable2UniqueBugs regenerates Tables 2 and 5: fuzz every system
// with PM-aware exploration and count unique bugs per type.
func BenchmarkTable2UniqueBugs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd, err := experiments.RunBugDetection(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, row := range bd.Table5() {
			total += row.Total
		}
		b.ReportMetric(float64(total), "unique-bugs")
		if i == 0 {
			b.Log("\n" + bd.Table2() + "\n" + bd.Table5String())
		}
	}
}

// BenchmarkTable3FalsePositives regenerates Tables 3 and 6: candidates,
// confirmed inconsistencies and post-failure verdicts per system.
func BenchmarkTable3FalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd, err := experiments.RunBugDetection(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var inter, fps float64
		for _, row := range bd.Table3() {
			inter += float64(row.Inter)
			fps += float64(row.ValidatedFP + row.WhitelistedFP)
		}
		b.ReportMetric(inter, "inter-inconsistencies")
		b.ReportMetric(fps, "false-positives")
		if i == 0 {
			b.Log("\n" + bd.Table3String())
		}
	}
}

// BenchmarkTable4MutatorCoverage regenerates Table 4: memcached command
// coverage under the AFL++-style byte mutator vs PMRace's operation mutator.
func BenchmarkTable4MutatorCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable4(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Commands["AFL++"]["Error"]), "aflpp-error-cmds")
		b.ReportMetric(float64(res.Commands["PMRace"]["Error"]), "pmrace-error-cmds")
		b.ReportMetric(float64(res.Branch["PMRace"]), "pmrace-branch-cov")
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure8ExplorationTime regenerates Figure 8: the time to identify
// PM Inter-thread Inconsistencies under PMRace vs random delay injection.
func BenchmarkFigure8ExplorationTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFigure8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		var pmraceHits, delayHits float64
		for _, s := range series {
			if s.Scheme == "PMRace" {
				pmraceHits += float64(len(s.Times))
			} else {
				delayHits += float64(len(s.Times))
			}
		}
		b.ReportMetric(pmraceHits, "pmrace-detections")
		b.ReportMetric(delayHits, "delayinj-detections")
		if i == 0 {
			b.Log("\n" + experiments.Figure8String(series))
		}
	}
}

// BenchmarkFigure9TierAblation regenerates Figure 9: P-CLHT coverage with
// the full fuzzer, without interleaving-tier and without seed-tier
// exploration.
func BenchmarkFigure9TierAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		series, err := experiments.RunFigure9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			switch s.Variant {
			case "PMRace":
				b.ReportMetric(float64(s.Branch+s.Alias), "full-coverage")
			case "w/o IE":
				b.ReportMetric(float64(s.Branch+s.Alias), "no-ie-coverage")
			case "w/o SE":
				b.ReportMetric(float64(s.Branch+s.Alias), "no-se-coverage")
			}
		}
		if i == 0 {
			b.Log("\n" + experiments.Figure9String(series))
		}
	}
}

// BenchmarkFigure10Checkpoints regenerates Figure 10: input-generation
// throughput with and without in-memory pool checkpoints.
func BenchmarkFigure10Checkpoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchConfig()
		cfg.ExecsPerTarget = 12
		rows, err := experiments.RunFigure10(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var pmdkSpeedup, memcachedSpeedup float64
		var pmdkN float64
		for _, r := range rows {
			if r.System == "memcached-pmem" {
				memcachedSpeedup += r.Speedup() / 2
			} else {
				pmdkSpeedup += r.Speedup()
				pmdkN++
			}
		}
		b.ReportMetric(pmdkSpeedup/pmdkN, "pmdk-cp-speedup")
		b.ReportMetric(memcachedSpeedup, "memcached-cp-speedup")
		if i == 0 {
			b.Log("\n" + experiments.Figure10String(rows))
		}
	}
}

// BenchmarkFuzzThroughput measures raw campaign-execution throughput on
// P-CLHT (the engine the evaluation's wall-clock numbers stand on) across
// worker counts. The PM-aware strategy stalls writers to open race windows,
// so even on few cores extra workers overlap those stalls; the sweep checks
// the striped pool and lock-free coverage actually let them.
func BenchmarkFuzzThroughput(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fz, err := fuzz.New("pclht", fuzz.Options{
					MaxExecs: 20,
					Duration: 30 * time.Second,
					Workers:  workers,
					Seed:     int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := fz.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.ExecsPerSec, "execs/s")
			}
		})
	}
}

// --- Ablations of the design choices DESIGN.md calls out ---

// BenchmarkAblationEADR compares the ADR failure model (volatile caches,
// paper §3.1) against eADR (battery-backed caches, §6.6): inter-thread
// inconsistencies exist only under ADR, while synchronization
// inconsistencies survive both.
func BenchmarkAblationEADR(b *testing.B) {
	for _, eadr := range []bool{false, true} {
		name := "ADR"
		if eadr {
			name = "eADR"
		}
		eadr := eadr
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fz, err := fuzz.New("pclht", fuzz.Options{
					MaxExecs: 24,
					Duration: 60 * time.Second,
					Seed:     7,
					EADR:     eadr,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := fz.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Counts.InterCandidates+res.Counts.IntraCandidates), "dirty-read-candidates")
				b.ReportMetric(float64(res.Counts.SyncBugs), "sync-bugs")
			}
		})
	}
}

// BenchmarkAblationHotKeyCorpus measures the contribution of the hot-key
// seed style (similar keys, §4.5) by comparing the default corpus against a
// corpus without it on memcached, where the read-modify-write windows only
// open on shared keys.
func BenchmarkAblationHotKeyCorpus(b *testing.B) {
	for _, hot := range []bool{true, false} {
		name := "with-hotkeys"
		keySpace := 16
		if !hot {
			name = "wide-keyspace"
			keySpace = 512 // effectively no key sharing
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fz, err := fuzz.New("memcached", fuzz.Options{
					MaxExecs: 40,
					Duration: 60 * time.Second,
					Seed:     5,
					KeySpace: keySpace,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := fz.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Counts.Inter), "inter-inconsistencies")
			}
		})
	}
}
