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
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

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

// String renders the active fault terms, e.g. "chaos(drop=0.005,dup=0.005)".
func (p Profile) String() string {
	var terms []string
	add := func(k string, v float64) {
		if v > 0 {
			terms = append(terms, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("drop", p.Drop)
	add("reorder", p.Reorder)
	if p.Reorder > 0 && p.ReorderDelay > 0 {
		terms = append(terms, fmt.Sprintf("reorder-delay=%v", p.ReorderDelay))
	}
	add("dup", p.Dup)
	if p.Jitter > 0 {
		terms = append(terms, fmt.Sprintf("jitter=%v", p.Jitter))
	}
	add("corrupt", p.Corrupt)
	add("strip-options", p.StripOptions)
	add("feedback-loss", p.DropFeedback)
	name := p.Name
	if name == "" {
		name = "custom"
	}
	if len(terms) == 0 {
		return name + "(none)"
	}
	return name + "(" + strings.Join(terms, ",") + ")"
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

// Names returns the registered profile names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
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

// Parse resolves a -faults flag value: either a registered profile name
// (see Names) or a comma-separated key=value list, e.g.
// "drop=0.01,jitter=100us,feedback-loss=0.5". Duration-valued keys accept
// time.ParseDuration syntax; probability keys accept floats in [0,1].
func Parse(s string) (Profile, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Profile{}, nil
	}
	if p, ok := Lookup(s); ok {
		return p, nil
	}
	if !strings.Contains(s, "=") {
		if near := Nearest(s, Names()); near != "" {
			return Profile{}, fmt.Errorf("faults: unknown profile %q (did you mean %q?)", s, near)
		}
		return Profile{}, fmt.Errorf("faults: unknown profile %q (have %s)", s, strings.Join(Names(), ", "))
	}
	var p Profile
	for _, term := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return Profile{}, fmt.Errorf("faults: bad term %q (want key=value)", term)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		switch k {
		case "jitter", "reorder-delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return Profile{}, fmt.Errorf("faults: bad duration %s=%q", k, v)
			}
			if k == "jitter" {
				p.Jitter = sim.Duration(d.Nanoseconds())
			} else {
				p.ReorderDelay = sim.Duration(d.Nanoseconds())
			}
		default:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0 && f <= 1) {
				return Profile{}, fmt.Errorf("faults: bad probability %s=%q (want [0,1])", k, v)
			}
			switch k {
			case "drop":
				p.Drop = f
			case "reorder":
				p.Reorder = f
			case "dup":
				p.Dup = f
			case "corrupt":
				p.Corrupt = f
			case "strip-options":
				p.StripOptions = f
			case "feedback-loss":
				p.DropFeedback = f
			default:
				return Profile{}, fmt.Errorf("faults: unknown key %q", k)
			}
		}
	}
	return p.withDefaults(), nil
}
