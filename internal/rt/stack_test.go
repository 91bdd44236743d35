package rt_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/rt"
	"github.com/pmrace-go/pmrace/internal/taint"
)

// The helpers below play the instrumented program: their frames, not the
// runtime's or the detector's, must head every captured stack.

// labelledStore stores a value loaded while dirty, which records an
// inter-thread inconsistency. It returns the frame the store's stack must
// start with.
func labelledStore(w, r *rt.Thread) string {
	w.Store64(64, 7, taint.None, taint.None)
	v, lab := r.Load64(64)
	_, file, line, _ := runtime.Caller(0)
	r.Store64(512, v, lab, taint.None)
	return fmt.Sprintf("%s:%d rt_test.labelledStore", filepath.Base(file), line+1)
}

// lockWordStore changes an annotated lock word, which records a
// synchronization inconsistency.
func lockWordStore(th *rt.Thread) string {
	_, file, line, _ := runtime.Caller(0)
	th.Store64(1024, 1, taint.None, taint.None)
	return fmt.Sprintf("%s:%d rt_test.lockWordStore", filepath.Base(file), line+1)
}

func checkStack(t *testing.T, what string, stack []string, top string) {
	t.Helper()
	if len(stack) == 0 || stack[0] != top {
		t.Fatalf("%s stack = %q, want it to start with %q", what, stack, top)
	}
	for _, fr := range stack {
		if strings.Contains(fr, " rt.") || strings.Contains(fr, " core.") {
			t.Fatalf("%s stack frame %q names the runtime or the detector", what, fr)
		}
	}
}

func TestFindingStacksStartAtTheInstrumentedSite(t *testing.T) {
	var (
		ins  []*core.Inconsistency
		sync []*core.SyncInconsistency
	)
	env := rt.NewEnv(pmem.New(4096), rt.Config{
		OnInconsistency: func(_ *rt.Env, in *core.Inconsistency) { ins = append(ins, in) },
		OnSync:          func(_ *rt.Env, si *core.SyncInconsistency) { sync = append(sync, si) },
	})
	env.AnnotateSyncVar(core.SyncVar{Name: "lock", Addr: 1024, Size: 8})
	w, r := env.Spawn(), env.Spawn()

	top := labelledStore(w, r)
	if len(ins) != 1 {
		t.Fatalf("labelled store recorded %d inconsistencies, want 1", len(ins))
	}
	checkStack(t, "inconsistency", ins[0].Stack, top)

	top = lockWordStore(r)
	if len(sync) != 1 {
		t.Fatalf("lock-word store recorded %d sync inconsistencies, want 1", len(sync))
	}
	checkStack(t, "sync inconsistency", sync[0].Stack, top)
}

// TestRecordedFindingStoreDoesNotAllocate pins the point of capturing stacks
// only for new findings: once a labelled store's finding is recorded,
// repeating the store costs no more allocations than an untainted store.
func TestRecordedFindingStoreDoesNotAllocate(t *testing.T) {
	env := rt.NewEnv(pmem.New(4096), rt.Config{})
	w, r := env.Spawn(), env.Spawn()
	w.Store64(64, 7, taint.None, taint.None)
	v, lab := r.Load64(64)
	store := func() { r.Store64(512, v, lab, taint.None) } // one store site
	store()
	if n := len(env.Detector().Inconsistencies()); n != 1 {
		t.Fatalf("setup recorded %d inconsistencies, want 1", n)
	}
	plain := testing.AllocsPerRun(200, func() { r.Store64(1024, 1, taint.None, taint.None) })
	tainted := testing.AllocsPerRun(200, store)
	if tainted > plain {
		t.Fatalf("repeated labelled store: %.1f allocs/op, untainted store: %.1f", tainted, plain)
	}
	if got := env.Detector().Inconsistencies()[0].Count; got < 200 {
		t.Fatalf("repeated stores must still be counted, count = %d", got)
	}
}
