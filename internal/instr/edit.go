package instr

import (
	"fmt"
	"sort"
	"strings"
)

// A vlab is a virtual taint-label variable: the label result of one
// label-producing call (Load64, CAS64, ObjPool.Root, or a call to an
// augmented in-package function). During dataflow the generator refers to
// labels by *vlab pointer; concrete names are assigned only after the whole
// function is analyzed, so a label that no downstream edit references
// becomes the blank identifier — exactly the hand idiom `k, _ := t.Load64`.
type vlab struct {
	base string // suggested name stem (the value variable's name)
	used bool   // referenced by at least one emitted term
	name string // assigned after analysis: "<base>Lab" or "_"
}

// A labset is a sorted, duplicate-free set of labels in creation order.
// Creation order is source order, which keeps emitted unions deterministic
// (Union(tableLab, nLab), never the reverse).
type labset []*vlab

func (s labset) union(o labset) labset {
	if len(o) == 0 {
		return s
	}
	out := s
	for _, v := range o {
		found := false
		for _, have := range out {
			if have == v {
				found = true
				break
			}
		}
		if !found {
			out = append(out[:len(out):len(out)], v)
		}
	}
	return out
}

// An edit is one byte-range splice against the original source. Parts are
// literal strings and *vlab references (rendered after naming). Except for
// the freeform end-of-file marker, an edit must preserve the newline count
// of the region it replaces — line-number preservation is the contract that
// makes generated bug fingerprints name the plain source's lines.
type edit struct {
	lo, hi   int    // byte offsets into the source; lo==hi inserts
	parts    []any  // string | *vlab
	what     string // human description for error messages
	freeform bool   // exempt from the newline-preservation assertion
}

func (e *edit) render() string {
	var b strings.Builder
	for _, p := range e.parts {
		switch p := p.(type) {
		case string:
			b.WriteString(p)
		case *vlab:
			b.WriteString(p.name)
		default:
			panic(fmt.Sprintf("instr: bad edit part %T", p))
		}
	}
	return b.String()
}

// applyEdits splices the edits into src, enforcing ordering, non-overlap
// and newline preservation.
func applyEdits(src []byte, edits []*edit) ([]byte, error) {
	sorted := append([]*edit(nil), edits...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].lo != sorted[j].lo {
			return sorted[i].lo < sorted[j].lo
		}
		return sorted[i].hi < sorted[j].hi
	})
	var out []byte
	prev := 0
	for _, e := range sorted {
		if e.lo < prev {
			return nil, fmt.Errorf("instr: overlapping edits at byte %d (%s)", e.lo, e.what)
		}
		if e.hi > len(src) || e.lo > e.hi {
			return nil, fmt.Errorf("instr: edit out of range (%s)", e.what)
		}
		text := e.render()
		if !e.freeform {
			if got, want := strings.Count(text, "\n"), strings.Count(string(src[e.lo:e.hi]), "\n"); got != want {
				return nil, fmt.Errorf("instr: edit %q changes line count (%d -> %d newlines); line numbers must be preserved", e.what, want, got)
			}
		}
		out = append(out, src[prev:e.lo]...)
		out = append(out, text...)
		prev = e.hi
	}
	out = append(out, src[prev:]...)
	return out, nil
}
