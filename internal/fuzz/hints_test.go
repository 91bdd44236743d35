package fuzz

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/pmrace-go/pmrace/internal/lint"
	"github.com/pmrace-go/pmrace/internal/pmem"
	"github.com/pmrace-go/pmrace/internal/sched"
	"github.com/pmrace-go/pmrace/internal/site"
)

// TestLoadAliasHintsRoundTrip pins the schema contract between pmvet's
// alias-pair report (lint.AliasReport) and the fuzzer's hint loader: a
// report written with the producer's types must decode into the same pairs.
func TestLoadAliasHintsRoundTrip(t *testing.T) {
	rep := &lint.AliasReport{
		Version:  1,
		Packages: []string{"example.com/p"},
		Pairs: []lint.AliasPair{
			{Object: "root + 16", LoadSite: "p.go:14", StoreSite: "p.go:19", LoadFunc: "reader", StoreFunc: "writer"},
			{Object: "root + 24", LoadSite: "p.go:30", StoreSite: "p.go:41", LoadFunc: "get", StoreFunc: "put"},
		},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "alias.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	hints, err := LoadAliasHints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hints) != 2 {
		t.Fatalf("got %d hints, want 2", len(hints))
	}
	for i, want := range rep.Pairs {
		if hints[i].Load != want.LoadSite || hints[i].Store != want.StoreSite {
			t.Errorf("hint %d = %+v, want %s / %s", i, hints[i], want.LoadSite, want.StoreSite)
		}
	}
}

func TestLoadAliasHintsVersionMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "alias.json")
	if err := os.WriteFile(path, []byte(`{"version":2,"pairs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAliasHints(path); err == nil {
		t.Fatal("want schema-version error, got nil")
	}
}

// TestApplyAliasHints verifies a hinted entry overtakes a dynamically
// hotter one in the interleaving queue.
func TestApplyAliasHints(t *testing.T) {
	hintedLoad := site.Named("hinted-load.go")
	hintedStore := site.Named("hinted-store.go")
	hotLoad := site.Named("hot-load.go")
	hotStore := site.Named("hot-store.go")

	stats := map[pmem.Addr]*sched.AddrStats{}
	hot := new(sched.AddrStats)
	for i := 0; i < 10; i++ {
		hot.Record(1, hotLoad, false)
		hot.Record(2, hotStore, true)
	}
	cold := new(sched.AddrStats)
	cold.Record(1, hintedLoad, false)
	cold.Record(2, hintedStore, true)
	stats[0x100] = hot
	stats[0x200] = cold

	f := &Fuzzer{opts: Options{AliasHints: []AliasHint{{
		Load:  site.Lookup(hintedLoad).String(),
		Store: site.Lookup(hintedStore).String(),
	}}}}

	q := sched.BuildQueue(stats)
	f.applyAliasHints(q)
	first := q.Pop()
	if first == nil || first.Addr != 0x200 {
		t.Fatalf("first entry = %+v, want hinted addr 0x200", first)
	}
	if second := q.Pop(); second == nil || second.Addr != 0x100 {
		t.Fatalf("second entry = %+v, want 0x100", second)
	}

	// Without hints the dynamically hot entry stays first.
	q2 := sched.BuildQueue(stats)
	(&Fuzzer{}).applyAliasHints(q2)
	if first := q2.Pop(); first == nil || first.Addr != 0x100 {
		t.Fatalf("unhinted first entry = %+v, want 0x100", first)
	}
}
