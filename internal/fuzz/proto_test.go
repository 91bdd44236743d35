package fuzz

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/core"
	_ "github.com/pmrace-go/pmrace/internal/targets/memcached"
	"github.com/pmrace-go/pmrace/internal/workload"
)

func TestProtoThreadCount(t *testing.T) {
	s := workload.NewProtoSeed(4, []byte("a\n"), []byte("b\n"))
	if got := protoThreadCount(s); got != 2 {
		t.Fatalf("threads clamp to streams: got %d", got)
	}
	s.Threads = 1
	if got := protoThreadCount(s); got != 1 {
		t.Fatalf("got %d", got)
	}
}

func TestProtoMutatorKeepsSeedsPlayable(t *testing.T) {
	m := NewProtoMutator(11, 12, 4)
	rng := rand.New(rand.NewSource(5))
	corpus := []*workload.Seed{
		workload.NewProtoGen(3, 12, 4).MixSeed(6, 10),
		workload.NewProtoGen(4, 12, 4).ChurnSeed(8),
	}
	for i := 0; i < 200; i++ {
		s := m.Mutate(rng, corpus)
		if s.Proto == nil || len(s.Proto.Streams) == 0 {
			t.Fatalf("iteration %d: mutator produced a non-protocol seed", i)
		}
		for _, cp := range s.Proto.Crash {
			if cp.Stream >= len(s.Proto.Streams) {
				t.Fatalf("iteration %d: dangling crash point %+v over %d streams", i, cp, len(s.Proto.Streams))
			}
		}
		// Mutants must round-trip the corpus text format.
		back := workload.Decode(s.Encode(), s.Threads)
		if back.Proto == nil || len(back.Proto.Streams) != len(s.Proto.Streams) {
			t.Fatalf("iteration %d: mutant does not round-trip", i)
		}
		corpus = append(corpus[:1], s)
	}
	// A corpus with no protocol seeds falls back to generation.
	if s := m.Mutate(rng, []*workload.Seed{{Ops: []workload.Op{{Kind: workload.OpGet, Key: "k"}}}}); s.Proto == nil {
		t.Fatal("fallback seed is not a protocol seed")
	}
}

// TestProtocolCampaignSmoke runs a tiny protocol-mode campaign end to end:
// executions complete, protocol parse errors do not kill driver threads, and
// the mid-request crash images replay through recovery.
func TestProtocolCampaignSmoke(t *testing.T) {
	fz, err := New("memcached", Options{
		Threads:  4,
		KeySpace: 8,
		MaxExecs: 12,
		Duration: 30 * time.Second,
		Seed:     3,
		Protocol: true,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.Execs == 0 {
		t.Fatal("no executions")
	}
	for _, o := range res.DB.Others() {
		if o.Kind == "crash-recovery" {
			t.Errorf("memcached recovery failed at a protocol crash point: %s", o.Description)
		}
	}
}

// campaignDetections runs one deterministic campaign and returns the
// normalized fingerprints of every judged inconsistency (any status): the
// detection-level view, which is what the protocol mode must reproduce.
func campaignDetections(t *testing.T, protocol bool) (map[string]bool, map[string]bool) {
	t.Helper()
	fz, err := New("memcached", Options{
		Threads:    4,
		KeySpace:   12,
		OpsPerSeed: 40,
		MaxExecs:   80,
		Duration:   120 * time.Second,
		Seed:       7,
		Workers:    2,
		Protocol:   protocol,
	})
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	res, err := fz.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	detected := map[string]bool{}
	confirmed := map[string]bool{}
	for _, j := range res.DB.Inconsistencies() {
		fp := artifact.FingerprintInconsistency(j.Inconsistency)
		detected[fp] = true
		if j.Status == core.StatusBug {
			confirmed[fp] = true
		}
	}
	for _, j := range res.DB.Syncs() {
		fp := artifact.FingerprintSync(j.SyncInconsistency)
		detected[fp] = true
		if j.Status == core.StatusBug {
			confirmed[fp] = true
		}
	}
	return detected, confirmed
}

// TestProtocolCampaignMatchesSynthetic is the acceptance oracle for the wire
// front-end: fuzzing memcached through real protocol bytes must find the
// same seeded bugs as the synthetic-workload campaign, with matching
// file:line fingerprints — the wire path feeds ops into the exact dispatch
// the synthetic path uses, so every shared detection is byte-identical
// after normalization.
func TestProtocolCampaignMatchesSynthetic(t *testing.T) {
	if testing.Short() {
		t.Skip("two full fuzzing campaigns")
	}
	synDet, synBugs := campaignDetections(t, false)
	protoDet, protoBugs := campaignDetections(t, true)
	t.Logf("synthetic: %d detected / %d confirmed:\n  %v", len(synDet), len(synBugs), sortedKeys(synDet))
	t.Logf("protocol: %d detected / %d confirmed:\n  %v", len(protoDet), len(protoBugs), sortedKeys(protoDet))

	if len(synDet) == 0 {
		t.Fatal("synthetic campaign detected nothing")
	}
	if len(protoDet) == 0 {
		t.Fatal("protocol campaign detected nothing")
	}
	shared := 0
	for fp := range protoDet {
		if synDet[fp] {
			shared++
		}
	}
	if shared == 0 {
		t.Errorf("no overlap between protocol and synthetic detections")
	}
	if len(protoBugs) == 0 {
		t.Errorf("protocol campaign confirmed no bugs")
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
