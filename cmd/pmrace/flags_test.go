package main

import (
	"bufio"
	"bytes"
	"context"
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	pmrace "github.com/pmrace-go/pmrace"
	"github.com/pmrace-go/pmrace/api"
	"github.com/pmrace-go/pmrace/internal/fuzz"
	"github.com/pmrace-go/pmrace/internal/serve"
)

// specLines moves each api.CampaignSpec field off its default. The
// reachability test walks the struct by reflection, so a spec field added
// without a line here, and without a flag on both surfaces, fails it.
var specLines = map[string][]string{
	"Target":           {"-target", "memcached"},
	"Mode":             {"-mode", "delay"},
	"Workers":          {"-workers", "3"},
	"Threads":          {"-threads", "2"},
	"MaxExecs":         {"-execs", "7"},
	"Duration":         {"-duration", "9s"},
	"Seed":             {"-seed", "5"},
	"KeySpace":         {"-key-space", "8"},
	"OpsPerSeed":       {"-ops-per-seed", "12"},
	"Protocol":         {"-proto"},
	"MaxCrashStates":   {"-max-crash-states", "3"},
	"InlineValidation": {"-inline-validation"},
	"EADR":             {"-eadr"},
	"NoCheckpoints":    {"-no-checkpoints"},
	"Artifacts":        {"-artifacts"},
	"ArtifactsAll":     {"-artifacts-all"},
	"TraceSample":      {"-trace-sample", "3"},
}

// surfaces are the two flag sets a spec can be written on. Locally
// -artifacts names a directory rather than setting the spec's bool, so
// Artifacts is the one field the local surface is exempt from.
var surfaces = []struct {
	name   string
	parse  func(args []string) (*api.CampaignSpec, error)
	exempt string
}{
	{"local", func(args []string) (*api.CampaignSpec, error) {
		fs, f := newLocalFlags(io.Discard)
		return f.spec, fs.Parse(args)
	}, "Artifacts"},
	{"submit", func(args []string) (*api.CampaignSpec, error) {
		fs, f := newSubmitFlags(io.Discard)
		return f.spec, fs.Parse(args)
	}, ""},
}

// optionsViaWithSpec resolves spec the way a local run does: through
// pmrace.WithSpec into a campaign, stopped before its first execution. It
// also reports whether the campaign traces.
func optionsViaWithSpec(t *testing.T, spec api.CampaignSpec) (fuzz.Options, bool) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := pmrace.NewCampaign(ctx, "pclht", pmrace.WithSpec(spec))
	if err != nil {
		t.Fatalf("NewCampaign(WithSpec(%+v)): %v", spec, err)
	}
	_, _ = c.Wait() // a lone -artifacts-all fails the run; only the options matter
	return c.Options(), c.WriteTrace(io.Discard) == nil
}

// TestSpecFieldsReachable: every spec field has a flag on both surfaces, the
// flag changes that field alone, the same flag line yields the same spec
// locally and on submit, and the spec reaches the engine identically
// through pmrace.WithSpec and fuzz.OptionsFromSpec.
func TestSpecFieldsReachable(t *testing.T) {
	specs := map[string]map[string]api.CampaignSpec{}
	for _, sf := range surfaces {
		base, err := sf.parse(nil)
		if err != nil {
			t.Fatal(err)
		}
		baseOpts, err := fuzz.OptionsFromSpec(*base)
		if err != nil {
			t.Fatal(err)
		}
		specs[sf.name] = map[string]api.CampaignSpec{}
		typ := reflect.TypeOf(api.CampaignSpec{})
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Field(i).Name
			line, ok := specLines[field]
			if !ok {
				t.Errorf("spec field %s has no flag line", field)
				continue
			}
			if field == sf.exempt {
				continue
			}
			spec, err := sf.parse(line)
			if err != nil {
				t.Errorf("%s: %v does not parse: %v", sf.name, line, err)
				continue
			}
			specs[sf.name][field] = *spec
			got := reflect.ValueOf(*spec).Field(i)
			if got.Equal(reflect.ValueOf(*base).Field(i)) {
				t.Errorf("%s: %v leaves spec.%s at its default", sf.name, line, field)
			}
			only := *base
			reflect.ValueOf(&only).Elem().Field(i).Set(got)
			if only != *spec {
				t.Errorf("%s: %v sets more than spec.%s: %+v", sf.name, line, field, *spec)
			}

			opts, err := fuzz.OptionsFromSpec(*spec)
			if err != nil {
				t.Fatal(err)
			}
			viaWithSpec, traced := optionsViaWithSpec(t, *spec)
			if !reflect.DeepEqual(viaWithSpec, opts) {
				t.Errorf("%s: %v: WithSpec gives %+v, OptionsFromSpec %+v", sf.name, line, viaWithSpec, opts)
			}
			switch field {
			case "Target", "Artifacts":
				// Where a campaign runs and where bundles go, not engine
				// knobs: WithSpec ignores both.
			case "TraceSample":
				if !traced {
					t.Errorf("%s: %v does not enable tracing", sf.name, line)
				}
			default:
				if reflect.DeepEqual(opts, baseOpts) {
					t.Errorf("%s: %v does not reach fuzz.Options", sf.name, line)
				}
			}
		}
	}
	for field, local := range specs["local"] {
		if submit := specs["submit"][field]; submit != local {
			t.Errorf("spec.%s: one flag line, two specs: local %+v, submit %+v", field, local, submit)
		}
	}
}

// TestParseModeVocabulary pins the one mode vocabulary, and that each
// surface rejects a spelling outside it.
func TestParseModeVocabulary(t *testing.T) {
	for in, want := range map[string]fuzz.ExploreMode{
		"": fuzz.ModePMAware, "pmrace": fuzz.ModePMAware, "PMRace": fuzz.ModePMAware,
		"pmaware": fuzz.ModePMAware, "PMAWARE": fuzz.ModePMAware,
		"delay": fuzz.ModeDelayInj, "Delay": fuzz.ModeDelayInj,
		"none": fuzz.ModeNone, "NONE": fuzz.ModeNone,
	} {
		if got, err := fuzz.ParseMode(in); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"delayinj", "pm-aware", "random"} {
		if _, err := fuzz.ParseMode(in); err == nil {
			t.Errorf("ParseMode(%q) accepted", in)
		}
	}

	var stderr bytes.Buffer
	if code := run([]string{"-mode", "chaotic"}, io.Discard, &stderr); code != 2 {
		t.Errorf("local -mode chaotic: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown mode "chaotic"`) {
		t.Errorf("local -mode chaotic: stderr %q", stderr.String())
	}

	sup, err := serve.New(serve.Config{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Drain(context.Background())
	ts := httptest.NewServer(sup.Handler())
	defer ts.Close()
	stderr.Reset()
	if code := run([]string{"submit", "-server", ts.URL, "-mode", "chaotic"}, io.Discard, &stderr); code != 2 {
		t.Errorf("submit -mode chaotic: exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), api.CodeBadRequest) {
		t.Errorf("submit -mode chaotic: stderr %q", stderr.String())
	}
}

// TestRunSmoke is the end-to-end campaign every change must keep running:
// exit 1 (bugs confirmed, expected on the seeded target) or 0 passes; 2 is
// a usage or runtime error.
func TestRunSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-target", "pclht", "-execs", "16", "-workers", "4", "-seed", "1"}, &stdout, &stderr)
	if code != 0 && code != 1 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
	if !strings.Contains(stdout.String(), "unique bugs") {
		t.Fatalf("no summary on stdout:\n%s", &stdout)
	}
}

// TestRunUsageErrors: flags that do not parse, or a combination the engine
// rejects, exit 2. The unknown-mode case is in TestParseModeVocabulary.
func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-artifacts-all", "-execs", "2"},
		{"-no-such-flag"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// TestReadmeFlagTable: the README's flag reference lists exactly the flags
// of the local and submit flag sets.
func TestReadmeFlagTable(t *testing.T) {
	f, err := os.Open("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	row := regexp.MustCompile("^\\| `-([a-z-]+)`")
	documented := map[string]bool{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			in = line == "### cmd/pmrace flag reference"
			continue
		}
		if m := row.FindStringSubmatch(line); in && m != nil {
			documented[m[1]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	registered := map[string]bool{}
	local, _ := newLocalFlags(io.Discard)
	submit, _ := newSubmitFlags(io.Discard)
	for _, fs := range []*flag.FlagSet{local, submit} {
		fs.VisitAll(func(fl *flag.Flag) { registered[fl.Name] = true })
	}
	if !reflect.DeepEqual(documented, registered) {
		t.Errorf("README flag table %v\nflag sets         %v", keys(documented), keys(registered))
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
