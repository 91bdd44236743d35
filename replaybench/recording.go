package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"github.com/pmrace-go/pmrace/internal/artifact"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
	"github.com/pmrace-go/pmrace/internal/targets"
	"github.com/pmrace-go/pmrace/internal/wire"
	"github.com/pmrace-go/pmrace/internal/workload"
)

// recordingSchema versions the recording format.
const recordingSchema = 1

// hangTimeout is the fuzzer's default spin-lock hang bound
// (fuzz.Options.HangTimeout); replayed executions and validation use it.
const hangTimeout = 80 * time.Millisecond

// maxStreamCmds mirrors the executor's per-stream command cap.
const maxStreamCmds = 4096

// Recording is a fixed exec corpus: the workload seeds and the ordered
// executions a replay runs. Schedules use the artifact schedule.json shape,
// with sites as file:line strings, because site IDs are process-local.
type Recording struct {
	Schema         int    `json:"schema"`
	Workload       string `json:"workload"`
	Target         string `json:"target"`
	Seed           int64  `json:"seed"`
	InFlight       int    `json:"in_flight"`
	MaxCrashStates int    `json:"max_crash_states"`
	// Commands is the number of wire commands the protocol executions
	// parse, summed over Execs; zero for operation-vector workloads.
	Commands int `json:"commands"`
	// Seeds holds each workload seed in its text encoding
	// (workload.Seed.Encode).
	Seeds []string     `json:"seeds"`
	Execs []RecordExec `json:"execs"`
}

// RecordExec is one recorded execution.
type RecordExec struct {
	// Seed indexes Recording.Seeds.
	Seed int `json:"seed"`
	// SchedSeed seeds the PM-aware strategy's privileged-thread choice.
	SchedSeed int64             `json:"sched_seed,omitempty"`
	Schedule  artifact.Schedule `json:"schedule"`
}

// record builds the corpus for one workload seed. The queue entries come
// from a serial statistics pass, so the same seed always gives the same
// recording: the fuzzer's racy plain run would not.
func record(spec workloadSpec, seed int64) (*Recording, error) {
	factory, err := targetFactory(spec.target)
	if err != nil {
		return nil, err
	}
	rec := &Recording{
		Schema:         recordingSchema,
		Workload:       spec.name,
		Target:         spec.target,
		Seed:           seed,
		InFlight:       spec.inFlight,
		MaxCrashStates: spec.maxCrashStates,
	}
	snap, err := checkpoint(factory)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i, s := range spec.seeds(seed) {
		rec.Seeds = append(rec.Seeds, s.Encode())
		for j := 0; j < spec.baseExecs; j++ {
			rec.Execs = append(rec.Execs, RecordExec{Seed: i, Schedule: artifact.Schedule{Mode: "none"}})
		}
		if spec.entries == 0 {
			continue
		}
		stats, err := serialPass(factory, snap, s)
		if err != nil {
			return nil, fmt.Errorf("record %s seed %d: serial pass over workload seed %d: %w", spec.name, seed, i, err)
		}
		q := sched.BuildQueue(stats)
		for k := 0; k < spec.entries; k++ {
			e := q.Pop()
			if e == nil {
				break
			}
			sd := describeEntry(e)
			for j := 0; j < spec.schedSeeds; j++ {
				rec.Execs = append(rec.Execs, RecordExec{Seed: i, SchedSeed: rng.Int63(), Schedule: sd})
			}
		}
	}
	for _, ex := range rec.Execs {
		if s := decodeSeed(rec.Seeds[ex.Seed]); s.Proto != nil {
			rec.Commands += parseStreams(s).cmds
		}
	}
	return rec, nil
}

// describeEntry renders a queue entry as a schedule with resolved sites.
func describeEntry(e *sched.Entry) artifact.Schedule {
	sd := artifact.Schedule{Mode: "pmaware", Addr: uint64(e.Addr), Priority: e.Priority}
	for s := range e.LoadSites {
		sd.LoadSites = append(sd.LoadSites, site.Lookup(s).String())
	}
	for s := range e.StoreSites {
		sd.StoreSites = append(sd.StoreSites, site.Lookup(s).String())
	}
	sort.Strings(sd.LoadSites)
	sort.Strings(sd.StoreSites)
	return sd
}

// decodeSeed decodes a recorded workload seed.
func decodeSeed(text string) *workload.Seed { return workload.Decode(text, driverThreads) }

// checkpoint sets the target up on a fresh pool and snapshots it: the state
// every execution starts from.
func checkpoint(factory targets.Factory) (*pmem.Snapshot, error) {
	tgt := factory()
	env := rt.NewEnv(pmem.New(tgt.PoolSize()), rt.Config{HangTimeout: hangTimeout})
	th := env.Spawn()
	if err := tgt.Setup(th); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	th.Exit()
	return env.Pool().Snapshot(), nil
}

// serialPass runs the seed's driver threads one after another, from the
// checkpoint-plus-recovery state the executor starts from, with access
// statistics on. It also registers every site the seed reaches, which is
// what the replay's warm-up relies on.
func serialPass(factory targets.Factory, snap *pmem.Snapshot, seed *workload.Seed) (map[pmem.Addr]*sched.AddrStats, error) {
	tgt := factory()
	env := rt.NewEnv(pmem.NewFromSnapshot(snap), rt.Config{HangTimeout: hangTimeout, CollectStats: true})
	th := env.Spawn()
	err := tgt.Recover(th)
	th.Exit()
	if err != nil {
		return nil, fmt.Errorf("recover: %w", err)
	}
	var parts [][]workload.Op
	if seed.Proto != nil {
		parts = parseStreams(seed).threads
	} else {
		parts = seed.Split()
	}
	env.BeginExec(len(parts))
	for _, ops := range parts {
		if err := serialThread(env, tgt, ops); err != nil {
			return nil, err
		}
	}
	env.EndExec()
	return env.Stats(), nil
}

// serialThread runs one driver thread's operations. A hung thread abandons
// its remaining operations, as in the executor.
func serialThread(env *rt.Env, tgt targets.Target, ops []workload.Op) (err error) {
	th := env.Spawn()
	defer th.Exit()
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(rt.HangError); !ok {
				err = fmt.Errorf("serial pass panicked: %v", r)
			}
		}
	}()
	for _, op := range ops {
		_ = tgt.Exec(th, op) // operation errors are program behaviour, not failures
	}
	return nil
}

// parsed is a protocol seed's streams run through wire.Parser.
type parsed struct {
	// threads holds each driver thread's operations, assigned the way the
	// executor assigns streams (thread i plays streams i, i+n, ...).
	threads   [][]workload.Op
	cmds      int
	malformed int
}

// parseStreams parses a protocol seed's streams exactly as the executor's
// protocol workers do.
func parseStreams(seed *workload.Seed) parsed {
	ps := seed.Proto
	n := seed.Threads
	if n < 1 {
		n = 1
	}
	if n > len(ps.Streams) {
		n = len(ps.Streams)
	}
	out := parsed{threads: make([][]workload.Op, n)}
	for si, stream := range ps.Streams {
		p := wire.NewParser()
		p.Feed(stream)
		for idx := 0; ; idx++ {
			cmd, ok := p.Next()
			if !ok || cmd.Quit || idx > maxStreamCmds {
				break
			}
			out.cmds++
			if cmd.Err != "" {
				out.malformed++
			}
			out.threads[si%n] = append(out.threads[si%n], cmd.Ops()...)
		}
	}
	return out
}

// recordingPath names the checked-in recording of a workload seed.
func recordingPath(dir, workloadName string, seed int64) string {
	return filepath.Join(dir, workloadName+"-"+strconv.FormatInt(seed, 10)+".json")
}

// encodeRecording renders a recording as indented JSON.
func encodeRecording(rec *Recording) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(rec); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeRecording parses and checks a recording.
func decodeRecording(data []byte) (*Recording, error) {
	var rec Recording
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("decode recording: %w", err)
	}
	if rec.Schema != recordingSchema {
		return nil, fmt.Errorf("recording schema %d, want %d", rec.Schema, recordingSchema)
	}
	if len(rec.Execs) == 0 {
		return nil, errors.New("recording has no executions")
	}
	if rec.InFlight < 1 {
		return nil, fmt.Errorf("recording in_flight %d < 1", rec.InFlight)
	}
	for i, ex := range rec.Execs {
		if ex.Seed < 0 || ex.Seed >= len(rec.Seeds) {
			return nil, fmt.Errorf("recording exec %d: seed index %d out of range", i, ex.Seed)
		}
		if m := ex.Schedule.Mode; m != "none" && m != "pmaware" {
			return nil, fmt.Errorf("recording exec %d: unsupported schedule mode %q", i, m)
		}
	}
	return &rec, nil
}

// recordingSource identifies the corpus a run replayed, for the host
// block: two runs did the same work only if their digests agree.
type recordingSource struct {
	// File is the checked-in recording, empty when the run recorded the
	// corpus in-process.
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
}

// loadRecording returns the checked-in recording for the workload seed, or
// records it in-process when none is checked in. Both paths return the
// encoded bytes, so set-up always parses the same way. A recording made
// in-process comes from the code under test; its digest in the host block
// shows whether two commits replayed the same corpus.
func loadRecording(dir string, spec workloadSpec, seed int64) ([]byte, recordingSource, error) {
	var src recordingSource
	path := recordingPath(dir, spec.name, seed)
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		src.File = filepath.ToSlash(path)
	case errors.Is(err, os.ErrNotExist):
		rec, err := record(spec, seed)
		if err != nil {
			return nil, src, err
		}
		if data, err = encodeRecording(rec); err != nil {
			return nil, src, err
		}
	default:
		return nil, src, err
	}
	sum := sha256.Sum256(data)
	src.SHA256 = hex.EncodeToString(sum[:])
	return data, src, nil
}

// siteIndex maps file:line strings to the site IDs registered so far.
func siteIndex() map[string][]site.ID {
	idx := make(map[string][]site.ID)
	for id := site.ID(1); ; id++ {
		info := site.Lookup(id)
		if info.File == "" {
			return idx
		}
		k := info.String()
		idx[k] = append(idx[k], id)
	}
}

// resolveSites turns recorded file:line strings back into a site set. A
// site that no registered ID carries fails loudly: dropping it would replay
// a different schedule than the one recorded.
func resolveSites(idx map[string][]site.ID, names []string) (map[site.ID]struct{}, error) {
	out := make(map[site.ID]struct{}, len(names))
	for _, n := range names {
		ids, ok := idx[n]
		if !ok {
			return nil, fmt.Errorf("site %s is not registered after the warm-up run", n)
		}
		for _, id := range ids {
			out[id] = struct{}{}
		}
	}
	return out, nil
}
