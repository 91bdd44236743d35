package fuzz

import (
	"fmt"
	"strings"

	"github.com/pmrace-go/pmrace/api"
)

// ParseMode maps a mode name to its exploration strategy, ignoring case:
// "" (the default), "pmrace" and "pmaware" select PM-aware exploration,
// "delay" random delay injection and "none" the Go scheduler alone. It is
// the one mode vocabulary of every surface: CLI flags, campaign specs and
// the REST API.
func ParseMode(s string) (ExploreMode, error) {
	switch strings.ToLower(s) {
	case "", "pmrace", "pmaware":
		return ModePMAware, nil
	case "delay":
		return ModeDelayInj, nil
	case "none":
		return ModeNone, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want pmrace, delay or none)", s)
}

// Defaults returns the engine's evaluation defaults: the value every zero
// Options field resolves to.
func Defaults() Options { return Options{}.withDefaults() }

// ApplySpec sets the engine knobs a campaign spec carries, leaving every
// other field of o as it was. A zero spec field selects the engine default.
// Target and Artifacts say where a campaign runs and where its bundles go,
// and TraceSample configures the tracer, not the engine; callers handle
// those three. o is unchanged when the spec's mode does not parse.
func ApplySpec(o *Options, spec api.CampaignSpec) error {
	mode, err := ParseMode(spec.Mode)
	if err != nil {
		return err
	}
	o.Mode = mode
	o.Workers = spec.Workers
	o.Threads = spec.Threads
	o.MaxExecs = spec.MaxExecs
	o.Duration = spec.Duration
	o.Seed = spec.Seed
	o.KeySpace = spec.KeySpace
	o.OpsPerSeed = spec.OpsPerSeed
	o.Protocol = spec.Protocol
	o.MaxCrashStates = spec.MaxCrashStates
	o.InlineValidation = spec.InlineValidation
	o.EADR = spec.EADR
	o.NoCheckpoints = spec.NoCheckpoints
	o.ArtifactAll = spec.ArtifactsAll
	return nil
}

// OptionsFromSpec resolves a campaign spec to engine options, with the
// defaults filled in.
func OptionsFromSpec(spec api.CampaignSpec) (Options, error) {
	var o Options
	if err := ApplySpec(&o, spec); err != nil {
		return Options{}, err
	}
	return o.withDefaults(), nil
}
