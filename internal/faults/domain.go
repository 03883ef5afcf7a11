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
	"sort"
	"strconv"
	"strings"
	"time"

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

// String names the kind using the spec syntax.
func (k DomainKind) String() string {
	switch k {
	case DomainLinkDown:
		return "link-down"
	case DomainSwitchDown:
		return "switch-down"
	case DomainFlap:
		return "flap"
	case DomainGray:
		return "gray"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
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

// withDefaults fills unset fields per kind.
func (d FaultDomain) withDefaults() FaultDomain {
	if d.At == 0 {
		d.At = sim.Millisecond
	}
	switch d.Kind {
	case DomainLinkDown, DomainSwitchDown:
		if d.For == 0 {
			d.For = 100 * sim.Microsecond
		}
	case DomainFlap:
		if d.Down == 0 {
			d.Down = 100 * sim.Microsecond
		}
		if d.Up == 0 {
			d.Up = sim.Millisecond
		}
		if d.Count == 0 {
			d.Count = 3
		}
	case DomainGray:
		if d.Loss == 0 && d.Delay == 0 {
			d.Loss = 0.01
		}
	}
	return d
}

// String renders the domain in the spec syntax it parses from.
func (d FaultDomain) String() string {
	var terms []string
	if d.Link != "" {
		terms = append(terms, "link="+d.Link)
	}
	if d.Switch != "" {
		terms = append(terms, "switch="+d.Switch)
	}
	switch d.Kind {
	case DomainLinkDown, DomainSwitchDown:
		terms = append(terms, fmt.Sprintf("for=%v", d.For))
	case DomainFlap:
		terms = append(terms, fmt.Sprintf("down=%v", d.Down),
			fmt.Sprintf("up=%v", d.Up), fmt.Sprintf("count=%d", d.Count))
	case DomainGray:
		if d.Loss > 0 {
			terms = append(terms, fmt.Sprintf("loss=%g", d.Loss))
		}
		if d.Delay > 0 {
			terms = append(terms, fmt.Sprintf("delay=%v", d.Delay))
		}
		if d.For > 0 {
			terms = append(terms, fmt.Sprintf("for=%v", d.For))
		}
	}
	s := fmt.Sprintf("%s@%v", d.Kind, d.At)
	if len(terms) > 0 {
		s += "," + strings.Join(terms, ",")
	}
	return s
}

// domainKinds maps spec names to kinds.
var domainKinds = map[string]DomainKind{
	"link-down":   DomainLinkDown,
	"switch-down": DomainSwitchDown,
	"flap":        DomainFlap,
	"gray":        DomainGray,
}

// DomainKinds returns the registered kind names, sorted.
func DomainKinds() []string {
	out := make([]string, 0, len(domainKinds))
	for n := range domainKinds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ParseDomains resolves a -fabric flag value: one or more ';'-separated
// domains, each "kind[@time][,key=value…]". Kinds: link-down, switch-down,
// flap, gray. Keys: link=<name|prefix*>, switch=<name>, for=<dur>,
// down=<dur>, up=<dur>, count=<n>, loss=<frac>, delay=<dur>. Examples:
//
//	link-down@2ms,link=p0-tor0>p0-agg0,for=500us
//	switch-down@5ms,switch=p1-tor0,for=5ms
//	flap@1ms,link=p0-agg0>core0,down=500us,up=2ms,count=5
//	gray@1ms,link=core1>p2-agg0,loss=0.02;link-down@4ms,link=p3-agg1>core3
func ParseDomains(s string) ([]FaultDomain, error) {
	var out []FaultDomain
	for _, spec := range strings.Split(s, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		d, err := parseDomain(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fabric: empty spec")
	}
	return out, nil
}

func parseDomain(spec string) (FaultDomain, error) {
	head, rest, hasOpts := strings.Cut(spec, ",")
	name, at, hasAt := strings.Cut(strings.TrimSpace(head), "@")
	name = strings.TrimSpace(name)
	kind, ok := domainKinds[name]
	if !ok {
		msg := fmt.Sprintf("fabric: unknown kind %q (have %s)", name, strings.Join(DomainKinds(), ", "))
		if near := Nearest(name, DomainKinds()); near != "" {
			msg += fmt.Sprintf("; did you mean %q?", near)
		}
		return FaultDomain{}, fmt.Errorf("%s", msg)
	}
	d := FaultDomain{Kind: kind}
	if hasAt {
		v, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil || v <= 0 {
			return FaultDomain{}, fmt.Errorf("fabric: bad time %q", at)
		}
		d.At = sim.Duration(v.Nanoseconds())
	}
	if hasOpts {
		for _, term := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
			if !ok {
				return FaultDomain{}, fmt.Errorf("fabric: bad term %q (want key=value)", term)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch k {
			case "link":
				d.Link = v
			case "switch":
				d.Switch = v
			case "for", "down", "up", "delay":
				dur, err := time.ParseDuration(v)
				if err != nil || dur < 0 {
					return FaultDomain{}, fmt.Errorf("fabric: bad duration %s=%q", k, v)
				}
				sd := sim.Duration(dur.Nanoseconds())
				switch k {
				case "for":
					d.For = sd
				case "down":
					d.Down = sd
				case "up":
					d.Up = sd
				case "delay":
					d.Delay = sd
				}
			case "count":
				n, err := strconv.Atoi(v)
				if err != nil || n <= 0 {
					return FaultDomain{}, fmt.Errorf("fabric: bad count %q", v)
				}
				d.Count = n
			case "loss":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || f < 0 || f > 1 {
					return FaultDomain{}, fmt.Errorf("fabric: bad loss %q (want 0..1)", v)
				}
				d.Loss = f
			default:
				return FaultDomain{}, fmt.Errorf("fabric: unknown key %q", k)
			}
		}
	}
	switch kind {
	case DomainSwitchDown:
		if d.Switch == "" {
			return FaultDomain{}, fmt.Errorf("fabric: %s needs switch=<name>", kind)
		}
	default:
		if d.Link == "" {
			return FaultDomain{}, fmt.Errorf("fabric: %s needs link=<name|prefix*>", kind)
		}
	}
	return d.withDefaults(), nil
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
			prev := l.Fault
			l.Fault = ds.grayHook(prev, p.Loss, p.Delay)
			if p.For > 0 {
				restore := prev
				target := l
				s.Schedule(p.For, func() { target.Fault = restore })
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
