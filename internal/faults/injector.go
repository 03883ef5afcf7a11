package faults

import (
	"math/rand"

	"acdc/internal/metrics"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// Injector compiles a Profile into link fault hooks. All randomness comes
// from one PRNG seeded at construction, and the simulator executes events
// deterministically, so a chaos run is a pure function of (topology,
// workload, profile, seed) — a failing mix replays exactly.
type Injector struct {
	prof Profile
	rng  *rand.Rand
	reg  *metrics.Registry

	// Per-kind injection counters (fault_*_total).
	drops    *metrics.Counter
	reorders *metrics.Counter
	dups     *metrics.Counter
	jitters  *metrics.Counter
	corrupts *metrics.Counter
	strips   *metrics.Counter
	fbDrops  *metrics.Counter
	fbStrips *metrics.Counter
}

// NewInjector builds an injector for prof with its own seeded PRNG.
func NewInjector(prof Profile, seed int64) *Injector {
	reg := metrics.NewRegistry()
	return &Injector{
		prof:     prof.withDefaults(),
		rng:      rand.New(rand.NewSource(seed)),
		reg:      reg,
		drops:    reg.Counter("fault_drops_total"),
		reorders: reg.Counter("fault_reorders_total"),
		dups:     reg.Counter("fault_dups_total"),
		jitters:  reg.Counter("fault_jitter_total"),
		corrupts: reg.Counter("fault_corrupts_total"),
		strips:   reg.Counter("fault_optstrips_total"),
		fbDrops:  reg.Counter("fault_feedback_drops_total"),
		fbStrips: reg.Counter("fault_feedback_strips_total"),
	}
}

// SetProfile swaps the fault mix on a live injector — how a soak harness
// flips fault regimes mid-run without rebuilding the topology. The profile is
// read by Hook on the simulation goroutine, so SetProfile must run there too
// (a daemon marshals it through its command queue). Swapping in a disabled
// profile quiesces faults but keeps the hook attached, so a later swap can
// re-enable them; an injector built with a disabled profile never attached
// hooks and stays inert.
func (in *Injector) SetProfile(p Profile) { in.prof = p.withDefaults() }

// Registry exposes the injection counters for telemetry merging.
func (in *Injector) Registry() *metrics.Registry { return in.reg }

// Attach installs the injector's hook on a link. A disabled profile leaves
// the link untouched so fault-free runs stay on the exact pre-existing path.
func (in *Injector) Attach(l *netsim.Link) {
	if !in.prof.Enabled() {
		return
	}
	l.SetFault(in.Hook)
}

// Hook is the netsim.FaultHook: it draws from the seeded PRNG in packet
// order and applies the profile's fault mix. Faults compose in a fixed
// order (feedback-drop, loss, corruption, option-strip, duplication,
// reorder, jitter) so a given PRNG stream always produces the same run.
func (in *Injector) Hook(l *netsim.Link, p *packet.Packet, deliver func(q *packet.Packet, extra sim.Duration)) {
	prof := &in.prof

	if prof.DropFeedback > 0 && in.dropFeedback(p) {
		consume(l, p)
		return
	}
	if prof.Drop > 0 && in.rng.Float64() < prof.Drop {
		in.drops.Inc()
		consume(l, p)
		return
	}
	if prof.Corrupt > 0 && in.rng.Float64() < prof.Corrupt {
		in.corrupt(p)
	}
	if prof.StripOptions > 0 && in.rng.Float64() < prof.StripOptions {
		if packet.RemoveAllTCPOptionsInPlace(p) {
			in.strips.Inc()
		}
	}
	if prof.Dup > 0 && in.rng.Float64() < prof.Dup {
		in.dups.Inc()
		deliver(p.Clone(), 0)
	}
	var extra sim.Duration
	if prof.Reorder > 0 && in.rng.Float64() < prof.Reorder {
		in.reorders.Inc()
		extra += prof.ReorderDelay
	}
	if prof.Jitter > 0 {
		if j := sim.Duration(in.rng.Int63n(int64(prof.Jitter) + 1)); j > 0 {
			in.jitters.Inc()
			extra += j
		}
	}
	deliver(p, extra)
}

// consume accounts a hook-dropped packet against the link and returns its
// buffer to the pool — the hook is the packet's sole owner at this point.
// l is nil only when unit tests drive a hook directly; then the packet just
// falls to the garbage collector.
func consume(l *netsim.Link, p *packet.Packet) {
	if l == nil {
		return
	}
	l.Stats.DropsFault++
	l.Pool.Put(p)
}

// dropFeedback kills AC/DC's congestion-feedback channel only: dedicated
// FACK packets are dropped, piggybacked PACK options are stripped in place.
// Guest segments and ACKs are never touched, so only the vSwitch sender
// module — not the guest — sees the outage. Reports whether the whole
// packet was consumed.
func (in *Injector) dropFeedback(p *packet.Packet) bool {
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != packet.ProtoTCP {
		return false
	}
	t := ip.TCP()
	if !t.Valid() || t.HasFlags(packet.FlagSYN) {
		return false
	}
	opts := t.Options()
	if len(opts) == 0 {
		return false
	}
	// Dedicated FACK: a pure ACK whose only job is carrying feedback.
	if _, ok := packet.ParsePACK(packet.FindOption(opts, packet.OptFACK)); ok {
		if in.rng.Float64() < in.prof.DropFeedback {
			in.fbDrops.Inc()
			return true
		}
		return false
	}
	if packet.FindOption(opts, packet.OptPACK) != nil && in.rng.Float64() < in.prof.DropFeedback {
		packet.RemoveTCPOptionInPlace(p, packet.OptPACK)
		in.fbStrips.Inc()
	}
	return false
}

// corrupt damages the TCP header the way flaky hardware does: the checksum
// field is inverted, and any option bytes are overwritten with PRNG garbage
// — truncated lengths, overlapping options, bogus kinds. The datapath must
// parse (or refuse to parse) the result without panicking and fail open.
func (in *Injector) corrupt(p *packet.Packet) {
	ip := p.IP()
	if !ip.Valid() || ip.Protocol() != packet.ProtoTCP {
		return
	}
	t := ip.TCP()
	if !t.Valid() {
		return
	}
	in.corrupts.Inc()
	ihl := ip.HeaderLen()
	// Invert the TCP checksum field (bytes 16-17 of the TCP header).
	p.Buf[ihl+16] ^= 0xff
	p.Buf[ihl+17] ^= 0xff
	if opts := t.Options(); len(opts) > 0 {
		in.rng.Read(opts)
	}
}
