package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"github.com/pmrace-go/pmrace/internal/cover"
	"github.com/pmrace-go/pmrace/internal/sched"
)

// smallRecording records a reduced corpus of the workload, so tests stay
// quick while exercising the same code paths as a full recording.
func smallRecording(t *testing.T, name string, seeds int) (*Recording, []byte) {
	t.Helper()
	spec, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	spec.seedCount = seeds
	rec, err := record(spec, 3)
	if err != nil {
		t.Fatalf("record %s: %v", name, err)
	}
	data, err := encodeRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rec, data
}

// TestRecordingRoundTrip: a recording survives encode/decode unchanged, the
// same seed records byte-identical corpora, and set-up resolves every
// recorded site back to a registered site ID.
func TestRecordingRoundTrip(t *testing.T) {
	for _, name := range []string{"pclht-pmaware", "pmwal-proto"} {
		rec, data := smallRecording(t, name, 2)
		if len(rec.Execs) <= len(rec.Seeds) {
			t.Fatalf("%s: %d executions over %d seeds; want scheduled executions beyond the plain ones", name, len(rec.Execs), len(rec.Seeds))
		}
		dec, err := decodeRecording(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		again, err := encodeRecording(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Fatalf("%s: encode(decode(recording)) differs from the recording", name)
		}
		_, data2 := smallRecording(t, name, 2)
		if !bytes.Equal(data, data2) {
			t.Fatalf("%s: recording the same seed twice gave different corpora", name)
		}
		b, err := setup(data, false)
		if err != nil {
			t.Fatalf("%s: setup: %v", name, err)
		}
		scheduled := 0
		for i, p := range b.execs {
			sd := rec.Execs[i].Schedule
			if p.entry == nil {
				continue
			}
			scheduled++
			if uint64(p.entry.Addr) != sd.Addr || len(p.entry.LoadSites) < len(sd.LoadSites) || len(p.entry.StoreSites) < len(sd.StoreSites) {
				t.Fatalf("%s: exec %d resolved to %+v, recorded %+v", name, i, p.entry, sd)
			}
		}
		if scheduled == 0 {
			t.Fatalf("%s: no scheduled executions resolved", name)
		}
	}
}

// TestUnresolvableSiteFailsSetup: a recorded site that no registered ID
// carries fails set-up, naming the site, instead of being dropped.
func TestUnresolvableSiteFailsSetup(t *testing.T) {
	rec, _ := smallRecording(t, "pclht-pmaware", 1)
	for i := range rec.Execs {
		if rec.Execs[i].Schedule.Mode == "pmaware" {
			rec.Execs[i].Schedule.LoadSites = append(rec.Execs[i].Schedule.LoadSites, "nosuchfile.go:4242")
			break
		}
	}
	data, err := encodeRecording(rec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = setup(data, false)
	if err == nil || !strings.Contains(err.Error(), "nosuchfile.go:4242") {
		t.Fatalf("setup error = %v, want one naming nosuchfile.go:4242", err)
	}
}

// TestCheckedInRecordingsAreCurrent: every checked-in recording is what
// the recorder produces today for its workload seed. A failure means the
// program changed under the recording; re-record and say so in the change.
func TestCheckedInRecordingsAreCurrent(t *testing.T) {
	for _, w := range workloads {
		path := recordingPath("recordings", w.name, 1)
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		rec, err := record(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := encodeRecording(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from a fresh recording of %s seed 1", path, w.name)
		}
	}
}

// TestWrapperNeutrality pins the three rules the traced run depends on:
// plain executions keep the bare sched.None (rt's fast path), interleaved
// executions wrap only *sched.PMAware and run on the executor built with
// statistics off, and Outcome is read from the inner strategy because the
// executor reports it only for a bare *sched.PMAware.
func TestWrapperNeutrality(t *testing.T) {
	_, data := smallRecording(t, "pclht-pmaware", 1)
	b, err := setup(data, true)
	if err != nil {
		t.Fatal(err)
	}
	var plain, inter *plannedExec
	for i := range b.execs {
		p := &b.execs[i]
		if p.entry == nil && plain == nil {
			plain = p
		}
		if p.entry != nil && inter == nil {
			inter = p
		}
	}
	if plain == nil || inter == nil {
		t.Fatal("recording lacks a plain or an interleaved execution")
	}

	strat, pm, tw := strategyFor(*plain, true)
	if _, ok := strat.(sched.None); !ok || pm != nil || tw != nil {
		t.Fatalf("traced plain strategy = %T, want bare sched.None", strat)
	}
	if len(b.traced) != b.rec.InFlight {
		t.Fatalf("%d traced executor sets, want one per in-flight worker (%d)", len(b.traced), b.rec.InFlight)
	}
	if b.traced[0].forExec(*plain) != b.traced[0].plain || b.traced[0].forExec(*inter) != b.traced[0].inter {
		t.Fatal("executions routed to the wrong executor")
	}
	if !b.execOptions(true).CollectStats || b.execOptions(false).CollectStats {
		t.Fatal("plain executors must collect statistics and interleaving executors must not")
	}
	res, err := runExec(b.traced[0].plain, plain.seed, strat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats == nil {
		t.Fatal("plain execution collected no statistics")
	}

	strat, pm, tw = strategyFor(*inter, true)
	if tw == nil || pm == nil || strat != tw || tw.PMAware != pm {
		t.Fatalf("traced interleaved strategy = %T, want the timing wrapper around the PM-aware strategy", strat)
	}
	res, err = runExec(b.traced[0].inter, inter.seed, strat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != nil {
		t.Fatal("wrapped interleaved execution collected statistics")
	}
	if res.Outcome != nil {
		t.Fatal("executor reported an Outcome for a wrapped strategy; read it from the result instead")
	}
	if tw.condWaitNS.Load() == 0 {
		t.Fatal("the wrapper timed no BeforeLoad call")
	}

	strat, pm, tw = strategyFor(*inter, false)
	if strat != pm || tw != nil {
		t.Fatalf("untraced interleaved strategy = %T, want the bare PM-aware strategy", strat)
	}
	res, err = runExec(b.untraced.inter, inter.seed, strat)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == nil || *res.Outcome != pm.Outcome() {
		t.Fatalf("untraced Outcome = %v, want the strategy's %v", res.Outcome, pm.Outcome())
	}
}

// TestTracedReplayChecksOperations: a traced replay checks that every
// execution without a hang ran all of its seed's target operations, so an
// executor that cuts a protocol stream short fails the run.
func TestTracedReplayChecksOperations(t *testing.T) {
	_, data := smallRecording(t, "pmwal-proto", 2)
	b, err := setup(data, true)
	if err != nil {
		t.Fatal(err)
	}
	rs := b.replay(true, cover.New())
	if rs.layers.opsMismatch != 0 || rs.layers.ops == 0 {
		t.Fatalf("faithful replay: %d operations, %d mismatched executions", rs.layers.ops, rs.layers.opsMismatch)
	}
	if p := b.check(rs); len(p) != 0 {
		t.Fatalf("faithful replay failed its checks: %v", p)
	}
	for i := range b.execs {
		b.execs[i].ops++ // as if the executor had dropped one operation
	}
	rs = b.replay(true, cover.New())
	if rs.layers.opsMismatch == 0 {
		t.Fatal("a replay one operation short of every seed passed the operation check")
	}
	if p := strings.Join(b.check(rs), "; "); !strings.Contains(p, "target operations") {
		t.Fatalf("checks = %q, want the operation-count failure", p)
	}
}

// TestSmokeRun runs every workload untraced and traced and checks the
// result line carries exactly the metrics BENCHMARK.json declares.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("replays every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("replaybench")
	for _, w := range decl.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{decl.EndToEnd, decl.PerLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "1", "--seconds", "0.001", "--trace", []string{"0", "1"}[trace]}
			if rc := run(args, &stdout, &stderr); rc != 0 {
				t.Fatalf("%v: exit %d\n%s", args, rc, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&res); err != nil {
				t.Fatalf("%v: result line: %v", args, err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%v: %d metrics, BENCHMARK.json declares %d", args, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%v: metric %s = %+v, want unit %s", args, m.Name, got, m.Unit)
				}
			}
			if w.Name == "memcached-plain" && trace == 1 {
				for name, m := range res.Metrics {
					if strings.HasPrefix(name, "sched.") && m.Value != 0 {
						t.Errorf("memcached-plain bypasses the scheduler, but %s = %v", name, m.Value)
					}
				}
			}
			if !strings.Contains(lines[0], `"host"`) {
				t.Errorf("%v: no host block before the result line", args)
			}
		}
	}
}
