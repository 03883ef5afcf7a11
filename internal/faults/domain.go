package faults

// Fabric fault domains. The Profile perturbs packets on a healthy link and
// RestartPlan kills the vSwitch process; what neither can express is the
// fabric itself failing — a link going dark, a ToR taking every attached
// port with it, a flapping spine uplink, or the nastiest production case,
// the gray link that stays "up" while silently dropping or delaying a
// fraction of traffic. A FaultDomain schedules those on the sim clock
// against links addressed by name, and the switches' ECMP re-hash steers
// surviving flows around the hole.
//
// Like every fault layer here, a domain run is a pure function of
// (topology, workload, plan, seed): gray loss draws from one PRNG seeded at
// construction, and down/up transitions are plain sim events.

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"acdc/internal/metrics"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// DomainKind selects the fabric fault.
type DomainKind uint8

const (
	// DomainLinkDown takes matching links down at At and back up at At+For.
	DomainLinkDown DomainKind = iota
	// DomainSwitchDown takes every link touching a named switch down for For
	// (ToR / aggregation failure).
	DomainSwitchDown
	// DomainFlap cycles matching links down for Down and up for Up, Count
	// times, starting at At.
	DomainFlap
	// DomainGray leaves matching links "up" but silently drops a Loss
	// fraction and delays survivors by Delay, from At until At+For (For=0:
	// the rest of the run).
	DomainGray
)

// String names the kind as a spec does.
func (k DomainKind) String() string {
	for name, d := range domainKinds {
		if d.Kind == k {
			return name
		}
	}
	return fmt.Sprintf("kind(%d)", k)
}

// FaultDomain declares one scheduled fabric fault.
type FaultDomain struct {
	Kind DomainKind
	// Link selects target links by name: exact match, or a prefix when the
	// pattern ends in '*' (e.g. "p0-agg0>*" = all of agg0's uplinks). Used
	// by link-down, flap, and gray.
	Link string
	// Switch names the switch whose attached links fail (switch-down).
	Switch string
	// At is when the domain activates (default 1ms).
	At sim.Duration
	// For is the outage length for link-down/switch-down (default 100µs)
	// and the gray window (default 0 = rest of run).
	For sim.Duration
	// Down/Up are the flap half-periods (defaults 100µs down, 1ms up).
	Down, Up sim.Duration
	// Count is the number of flap cycles (default 3).
	Count int
	// Loss is the gray silent-drop probability (default 0.01).
	Loss float64
	// Delay is the gray extra one-way delay for surviving packets.
	Delay sim.Duration
}

// withDefaults fills the unset fields of d's kind. given names the keys a
// spec set (grammar.read): a value it states, zero included, is kept.
func (d FaultDomain) withDefaults(given ...string) FaultDomain {
	def := func(key string, f *sim.Duration, v sim.Duration) {
		if *f == 0 && !slices.Contains(given, key) {
			*f = v
		}
	}
	if d.At == 0 {
		d.At = sim.Millisecond
	}
	switch d.Kind {
	case DomainLinkDown, DomainSwitchDown:
		def("for", &d.For, 100*sim.Microsecond)
	case DomainFlap:
		def("down", &d.Down, 100*sim.Microsecond)
		def("up", &d.Up, sim.Millisecond)
		if d.Count == 0 {
			d.Count = 3
		}
	case DomainGray:
		if d.Loss == 0 && d.Delay == 0 && !slices.Contains(given, "loss") {
			d.Loss = 0.01
		}
	}
	return d
}

// idle names the zero that leaves d's kind nothing to run, or "": an outage
// of no length, a flap that is never down or never up (its outages would
// merge into one), a gray link that neither drops nor delays.
func (d FaultDomain) idle() string {
	switch {
	case (d.Kind == DomainLinkDown || d.Kind == DomainSwitchDown) && d.For == 0:
		return "for"
	case d.Kind == DomainFlap && d.Down == 0:
		return "down"
	case d.Kind == DomainFlap && d.Up == 0:
		return "up"
	case d.Kind == DomainGray && d.Loss == 0 && d.Delay == 0:
		return "loss or delay"
	}
	return ""
}

// String renders the domain as ParseDomains reads it.
func (d FaultDomain) String() string { return domainGrammar.render(d.Kind.String(), d) }

// domainKinds maps spec names to kinds.
var domainKinds = map[string]FaultDomain{
	"link-down":   {Kind: DomainLinkDown},
	"switch-down": {Kind: DomainSwitchDown},
	"flap":        {Kind: DomainFlap},
	"gray":        {Kind: DomainGray},
}

// domainGrammar declares a fault domain's keys.
var domainGrammar = grammar[FaultDomain]{
	what: "fabric", noun: "kind", heads: domainKinds,
	at: func(d *FaultDomain) *sim.Duration { return &d.At },
	keys: []key[FaultDomain]{
		{"link", func(d *FaultDomain) any { return &d.Link }, "links by name, or by a name prefix ending in '*'"},
		{"switch", func(d *FaultDomain) any { return &d.Switch }, "the switch whose links fail (switch-down)"},
		{"for", func(d *FaultDomain) any { return &d.For }, "outage length (default 100us); gray: window (default to the end)"},
		{"down", func(d *FaultDomain) any { return &d.Down }, "flap: time down (default 100us)"},
		{"up", func(d *FaultDomain) any { return &d.Up }, "flap: time up (default 1ms)"},
		{"count", func(d *FaultDomain) any { return &d.Count }, "flap: cycles (default 3)"},
		{"loss", func(d *FaultDomain) any { return &d.Loss }, "gray: silent drop probability (default 0.01 without delay)"},
		{"delay", func(d *FaultDomain) any { return &d.Delay }, "gray: extra delay of the packets it keeps"},
	},
}

// ParseDomains resolves a -fabric flag value: one or more ';'-separated
// domains, each "kind[@time][,key=value…]" (see DomainHelp). A switch-down
// needs switch=, every other kind link=.
func ParseDomains(s string) ([]FaultDomain, error) {
	var out []FaultDomain
	for _, spec := range strings.Split(s, ";") {
		if strings.TrimSpace(spec) == "" {
			continue
		}
		d, given, err := domainGrammar.read(spec)
		if err != nil {
			return nil, err
		}
		d = d.withDefaults(given...)
		if key := d.idle(); key != "" {
			return nil, fmt.Errorf("fabric: %s needs %s > 0", d.Kind, key)
		}
		target, need := d.Link, "link"
		if d.Kind == DomainSwitchDown {
			target, need = d.Switch, "switch"
		}
		if target == "" {
			return nil, fmt.Errorf("fabric: %s needs %s=<name>", d.Kind, need)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fabric: empty spec")
	}
	return out, nil
}

// DomainHelp renders the fabric fault-domain kinds and keys as the `-fabric
// list` output (same convention as ProfilesHelp/RestartHelp).
func DomainHelp() string {
	kinds := map[string]string{
		"link-down":   "take the link= links down for for=",
		"switch-down": "take every link touching switch= down for for=",
		"flap":        "cycle the link= links down= and up=, count= times",
		"gray":        "the link= links stay up, but drop loss= and delay by delay=",
	}
	return domainGrammar.help("fabric fault domains (kind[@time][,key=value...]; @time > 0, default 1ms; join several with ';')",
		func(name string) string { return kinds[name] },
		"switch-down@5ms,switch=p1-tor0,for=5ms",
		"flap@1ms,link=p0-agg0>core0,down=500us,up=2ms,count=5",
		"gray@1ms,link=core1>p2-agg0,loss=0.02;link-down@4ms,link=p3-agg1>core3")
}

// FabricView is the topology surface a Domains scheduler targets. topo.Net
// implements it; the interface keeps this package below internal/topo in
// the dependency graph (same pattern as RestartTarget).
type FabricView interface {
	// LinksMatching returns links whose name matches pattern (exact, or
	// prefix when pattern ends in '*').
	LinksMatching(pattern string) []*netsim.Link
	// SwitchLinks returns every link attached to the named switch: its
	// egress ports plus the links that deliver into it.
	SwitchLinks(name string) []*netsim.Link
}

// Domains schedules a set of fault domains against a fabric and counts what
// they did. All gray-loss randomness comes from one PRNG seeded at
// construction, so a run replays exactly.
type Domains struct {
	plans []FaultDomain
	rng   *rand.Rand
	reg   *metrics.Registry

	linkDowns  *metrics.Counter // fabric_link_downs_total
	linkUps    *metrics.Counter // fabric_link_ups_total
	grayDrops  *metrics.Counter // fabric_gray_drops_total
	grayDelays *metrics.Counter // fabric_gray_delays_total
}

// NewDomains builds a scheduler for plans with its own seeded PRNG.
func NewDomains(plans []FaultDomain, seed int64) *Domains {
	reg := metrics.NewRegistry()
	withDef := make([]FaultDomain, len(plans))
	for i, p := range plans {
		withDef[i] = p.withDefaults()
	}
	return &Domains{
		plans:      withDef,
		rng:        rand.New(rand.NewSource(seed)),
		reg:        reg,
		linkDowns:  reg.Counter("fabric_link_downs_total"),
		linkUps:    reg.Counter("fabric_link_ups_total"),
		grayDrops:  reg.Counter("fabric_gray_drops_total"),
		grayDelays: reg.Counter("fabric_gray_delays_total"),
	}
}

// Registry exposes the domain counters for telemetry merging.
func (ds *Domains) Registry() *metrics.Registry { return ds.reg }

// Schedule arms every plan on the sim clock. It resolves link patterns
// eagerly and panics on a pattern that matches nothing — a chaos plan that
// silently targets zero links would report a misleading all-clear.
func (ds *Domains) Schedule(s *sim.Simulator, view FabricView) {
	for _, p := range ds.plans {
		var links []*netsim.Link
		if p.Kind == DomainSwitchDown {
			links = view.SwitchLinks(p.Switch)
			if len(links) == 0 {
				panic(fmt.Sprintf("fabric: %s matches no links (unknown switch %q?)", p, p.Switch))
			}
		} else {
			links = view.LinksMatching(p.Link)
			if len(links) == 0 {
				panic(fmt.Sprintf("fabric: %s matches no links (pattern %q)", p, p.Link))
			}
		}
		switch p.Kind {
		case DomainLinkDown, DomainSwitchDown:
			ds.scheduleOutage(s, links, p.At, p.For)
		case DomainFlap:
			for i := 0; i < p.Count; i++ {
				ds.scheduleOutage(s, links, p.At+sim.Duration(i)*(p.Down+p.Up), p.Down)
			}
		case DomainGray:
			ds.scheduleGray(s, links, p)
		}
	}
}

// scheduleOutage downs links at `at` and brings them back `dur` later.
func (ds *Domains) scheduleOutage(s *sim.Simulator, links []*netsim.Link, at, dur sim.Duration) {
	s.Schedule(at, func() {
		for _, l := range links {
			if !l.IsDown() {
				l.Down()
				ds.linkDowns.Inc()
			}
		}
	})
	s.Schedule(at+dur, func() {
		for _, l := range links {
			if l.IsDown() {
				l.Up()
				ds.linkUps.Inc()
			}
		}
	})
}

// scheduleGray chains a silent drop/delay hook in front of whatever fault
// hook the link already has (profile injectors compose underneath), and
// removes it again at the window's end.
func (ds *Domains) scheduleGray(s *sim.Simulator, links []*netsim.Link, p FaultDomain) {
	s.Schedule(p.At, func() {
		for _, l := range links {
			prev := l.Fault()
			l.SetFault(ds.grayHook(prev, p.Loss, p.Delay))
			if p.For > 0 {
				s.Schedule(p.For, func() { l.SetFault(prev) })
			}
		}
	})
}

// grayHook builds the FaultHook for one gray link: drop with probability
// loss, else add delay, else fall through to the previous hook (or clean
// delivery).
func (ds *Domains) grayHook(prev netsim.FaultHook, loss float64, delay sim.Duration) netsim.FaultHook {
	return func(l *netsim.Link, p *packet.Packet, deliver func(q *packet.Packet, extra sim.Duration)) {
		if loss > 0 && ds.rng.Float64() < loss {
			ds.grayDrops.Inc()
			l.Stats.DropsFault++
			l.Pool.Put(p)
			return
		}
		if delay > 0 {
			ds.grayDelays.Inc()
			if prev != nil {
				prev(l, p, func(q *packet.Packet, extra sim.Duration) { deliver(q, extra+delay) })
				return
			}
			deliver(p, delay)
			return
		}
		if prev != nil {
			prev(l, p, deliver)
			return
		}
		deliver(p, 0)
	}
}
