// Package faults is the deterministic fault-injection layer: it compiles a
// declarative FaultProfile into netsim link hooks driven by a seeded PRNG,
// so every chaos run is exactly reproducible from (profile, seed).
//
// The paper's core robustness claim (§5.2) is that AC/DC keeps working when
// it cannot trust its environment — arbitrary guest stacks, lossy fabrics,
// middleboxes that strip options, bounded vSwitch memory. This package
// manufactures those environments on demand: packet loss, reordering,
// duplication, delay jitter, checksum/option corruption, TCP-option
// stripping, and targeted loss of AC/DC's own PACK/FACK feedback channel.
// The vSwitch hardening it flushes out lives in internal/core; the chaos
// suite that asserts the invariants (no panic, no deadlock, flows complete,
// enforcement never widens a window) lives in this package's tests.
//
// Every injected fault increments a counter in the injector's metrics
// registry (fault_*_total), which internal/experiments merges into the fleet
// telemetry so `acdcsim -report -metrics` shows exactly what a chaos run did.
package faults

import (
	"strings"

	"acdc/internal/sim"
)

// Profile declares the fault mix applied to every link of a fabric.
// Probabilities are per packet in [0,1]; a zero Profile injects nothing.
type Profile struct {
	// Name labels the profile in reports ("" for ad-hoc profiles).
	Name string

	// Drop is the probability a packet is silently lost after
	// serialization (fabric loss beyond buffer overflow).
	Drop float64
	// Reorder is the probability a packet is held back by ReorderDelay so
	// packets behind it overtake (multi-path / pause-frame reordering).
	Reorder float64
	// ReorderDelay is the hold-back applied to reordered packets
	// (default 200µs when Reorder > 0).
	ReorderDelay sim.Duration
	// Dup is the probability a packet is delivered twice.
	Dup float64
	// Jitter adds a uniform random extra delay in [0, Jitter] to every
	// packet (oversubscribed/PFC-paused fabric).
	Jitter sim.Duration
	// Corrupt is the probability a packet's TCP header is damaged in
	// flight: the checksum field is inverted and, when the segment carries
	// options, the option bytes are scribbled with PRNG garbage — the
	// malformed-option input the datapath parsers must survive.
	Corrupt float64
	// StripOptions is the probability a middlebox strips all TCP options
	// from a segment (the §4 concern: AC/DC must degrade to passthrough
	// when its PACK option — or the guest's SACK/timestamps — vanish).
	StripOptions float64
	// DropFeedback is the probability AC/DC's own congestion feedback is
	// lost: PACK options are stripped from ACKs and dedicated FACK packets
	// are dropped, while all guest traffic passes untouched. This isolates
	// the sender module's lost-feedback tolerance.
	DropFeedback float64
}

// Enabled reports whether the profile injects anything at all.
func (p Profile) Enabled() bool {
	return p.Drop > 0 || p.Reorder > 0 || p.Dup > 0 || p.Jitter > 0 ||
		p.Corrupt > 0 || p.StripOptions > 0 || p.DropFeedback > 0
}

// String renders the profile as Parse reads it: its registered name, or the
// key list of its non-zero fields ("" for the zero Profile).
func (p Profile) String() string {
	if q, ok := Lookup(p.Name); ok && q == p {
		return p.Name
	}
	return profileGrammar.render("", p)
}

// withDefaults fills derived fields (reorder hold-back).
func (p Profile) withDefaults() Profile {
	if p.Reorder > 0 && p.ReorderDelay == 0 {
		p.ReorderDelay = 200 * sim.Microsecond
	}
	return p
}

// profiles is the named-profile registry: each stresses one recovery path,
// plus "chaos" mixing them all at rates a marginal-but-alive fabric shows.
var profiles = map[string]Profile{
	"none":          {},
	"loss":          {Drop: 0.01},
	"heavy-loss":    {Drop: 0.05},
	"reorder":       {Reorder: 0.02, ReorderDelay: 200 * sim.Microsecond},
	"dup":           {Dup: 0.01},
	"jitter":        {Jitter: 100 * sim.Microsecond},
	"corrupt":       {Corrupt: 0.01},
	"strip-options": {StripOptions: 1},
	"feedback-loss": {DropFeedback: 1},
	"chaos": {
		Drop: 0.005, Reorder: 0.01, ReorderDelay: 200 * sim.Microsecond,
		Dup: 0.005, Jitter: 50 * sim.Microsecond, Corrupt: 0.002,
		DropFeedback: 0.2,
	},
}

// Lookup returns the named profile.
func Lookup(name string) (Profile, bool) {
	p, ok := profiles[name]
	if !ok {
		return Profile{}, false
	}
	p.Name = name
	return p.withDefaults(), true
}

// profileGrammar declares a profile's keys.
var profileGrammar = grammar[Profile]{
	what: "faults", noun: "profile", heads: profiles,
	keys: []key[Profile]{
		{"drop", func(p *Profile) any { return &p.Drop }, "probability a packet is lost"},
		{"reorder", func(p *Profile) any { return &p.Reorder }, "probability a packet is held back reorder-delay"},
		{"reorder-delay", func(p *Profile) any { return &p.ReorderDelay }, "hold-back of a reordered packet (default 200us)"},
		{"dup", func(p *Profile) any { return &p.Dup }, "probability a packet is delivered twice"},
		{"jitter", func(p *Profile) any { return &p.Jitter }, "uniform extra delay up to this on every packet"},
		{"corrupt", func(p *Profile) any { return &p.Corrupt }, "probability a TCP checksum and options are damaged"},
		{"strip-options", func(p *Profile) any { return &p.StripOptions }, "probability every TCP option is stripped"},
		{"feedback-loss", func(p *Profile) any { return &p.DropFeedback }, "probability AC/DC's PACK/FACK feedback is lost"},
	},
}

// Parse resolves a -faults flag value: a registered profile name, or a
// comma-separated key=value list (see ProfilesHelp), e.g.
// "drop=0.01,jitter=100us,feedback-loss=0.5". "" is the zero Profile.
func Parse(s string) (Profile, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Profile{}, nil
	}
	if p, ok := Lookup(s); ok {
		return p, nil
	}
	g := &profileGrammar
	if !strings.Contains(s, "=") {
		return Profile{}, g.unknown(g.noun, s, names(profiles))
	}
	var p Profile
	if _, err := g.terms(&p, "", s); err != nil {
		return Profile{}, err
	}
	return p.withDefaults(), nil
}

// ProfilesHelp renders the built-in fault profiles and the keys as the
// `-faults list` output (topo.BindEnv), which is also the syntax of a
// scenario spec's Faults field.
func ProfilesHelp() string {
	return profileGrammar.help("built-in fault profiles (a profile is one of these names or a key list)",
		func(name string) string { return profileGrammar.render("", profiles[name].withDefaults()) },
		"drop=0.01,jitter=50us,feedback-loss=0.5")
}
