package main

import (
	"fmt"
	"sort"
	"strings"

	"github.com/pmrace-go/pmrace/internal/core"
	"github.com/pmrace-go/pmrace/internal/site"
)

// inventory is a target's seeded bug inventory as unique-bug keys: the
// kind plus the dirty-write site for inter/intra groups, the variable for
// sync groups (core.DB groups unique bugs the same way).
type inventory struct {
	allowed map[string]string // key -> seeded bug it belongs to
	// required lists the keys every replay must confirm.
	required []string
}

// inventories maps each replayed target to its seeded bugs. Inter and
// intra groups are keyed by every store site that writes a seeded field,
// because core.DB groups a unique bug by the site of the non-persisted
// write. The line numbers follow the targets' sources; a change that moves
// them must update this table and re-record.
var inventories = map[string]inventory{
	"pclht": {
		allowed: map[string]string{
			"inter@pclht.go:334": "Bug 1: resize publishes the table pointer before flushing it",
			"sync@bucket-lock":   "Bug 2: bucket locks survive restarts",
			"intra@pclht.go:310": "Bug 3: resize reads its own unflushed table_new",
		},
	},
	"cceh": {
		allowed: map[string]string{
			"sync@segment-lock": "Bug 6: segment locks survive restarts",
			"intra@cceh.go:351": "Bug 7: doubling reads its own unflushed directory capacity",
		},
	},
	"memcached": {allowed: memcachedInventory()},
	"pmwal": {
		allowed: map[string]string{
			"inter@pmwal.go:259": "WAL-1: unflushed tail pointer",
			"inter@pmwal.go:240": "WAL-2: compaction copies a record whose commit never persisted",
			"inter@pmwal.go:252": "WAL-2: commit marker fenced before its flush",
			"intra@pmwal.go:240": "WAL-3: torn multi-line append",
		},
		required: []string{"inter@pmwal.go:259", "inter@pmwal.go:240", "intra@pmwal.go:240"},
	},
}

// memcachedInventory lists the store sites of the six seeded fields (Bugs
// 9-14). The paper reports them as inter-thread bugs; the worker that wrote
// a field can also read it back unflushed before another thread does, which
// core.DB reports as an intra group on the same site, so both kinds count.
func memcachedInventory() map[string]string {
	fields := []struct {
		bug   string
		lines []int
	}{
		{"Bugs 9/10: value bytes or nbytes read before flush", []int{322, 323, 345, 346, 537, 538}},
		{"Bug 11: LRU prev read before flush", []int{367, 370, 433}},
		{"Bug 12: LRU next read before flush", []int{366, 428}},
		{"Bug 13: it_flags read before flush", []int{352, 401, 443}},
		{"Bug 14: slabs_clsid read before flush", []int{268, 351, 410, 455, 457}},
	}
	inv := map[string]string{}
	for _, f := range fields {
		for _, l := range f.lines {
			for _, kind := range []string{"inter", "intra"} {
				inv[fmt.Sprintf("%s@memcached.go:%d", kind, l)] = f.bug
			}
		}
	}
	return inv
}

// bugKey renders a unique bug's group identity.
func bugKey(b core.UniqueBug) string {
	if b.Kind == core.KindSync {
		return "sync@" + b.VarName
	}
	return strings.ToLower(b.Kind.String()) + "@" + site.Lookup(b.GroupSite).String()
}

// checkInventory reports every confirmed unique bug outside the target's
// seeded inventory and every required group the replay did not confirm.
func checkInventory(target string, bugs []core.UniqueBug) []string {
	inv, ok := inventories[target]
	if !ok {
		return []string{fmt.Sprintf("no seeded inventory for target %s", target)}
	}
	var problems []string
	found := map[string]bool{}
	for _, b := range bugs {
		k := bugKey(b)
		found[k] = true
		if _, ok := inv.allowed[k]; !ok {
			problems = append(problems, fmt.Sprintf("confirmed bug %s is outside the seeded inventory", k))
		}
	}
	for _, k := range inv.required {
		if !found[k] {
			problems = append(problems, fmt.Sprintf("seeded bug %s (%s) was not confirmed", k, inv.allowed[k]))
		}
	}
	sort.Strings(problems)
	return problems
}
