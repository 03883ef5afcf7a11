package netsim

import (
	"fmt"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// SwitchStats aggregates forwarding counters.
type SwitchStats struct {
	Forwarded     int64
	NoRoute       int64
	TTLDrops      int64
	EcmpForwarded int64 // packets steered by ECMP hash (no exact route matched)
	EcmpFailovers int64 // hash picked a down port and the pick was re-hashed to a live one
	Blackholes    int64 // every port in the matching ECMP group was down (packet dropped)
}

// Switch is an output-queued L3 switch: packets are routed by destination
// address to an egress port (a Link), whose PortQueue enforces the shared
// buffer and ECN marking. This mirrors the paper's single-chip ToR switches.
type Switch struct {
	Sim    *sim.Simulator
	Name   string
	Buffer *SharedBuffer
	Stats  SwitchStats

	// Pool recycles packets the switch terminates (route/TTL/queue drops);
	// nil degrades to garbage collection.
	Pool *packet.Pool

	// EcmpSeed perturbs the 5-tuple hash so different runs (and different
	// switches, if desired) spread flows differently while any one run
	// replays deterministically. Zero is a valid seed.
	EcmpSeed uint64

	ports []*Link

	// routes maps a destination to its exact route's port + 1, found in one
	// lookup (zero is no route). defaultEcmp is the equal-cost group for
	// destinations without one (a fat-tree ToR's "everything remote goes
	// up" rule). Lookup order: exact route → defaultEcmp → NoRoute drop.
	routes      sim.Index[packet.Addr, int32]
	defaultEcmp []int
	liveBuf     []int // scratch for failover re-hash; avoids per-packet allocs
}

// NewSwitch creates a switch with a shared buffer pool (nil = infinite).
func NewSwitch(s *sim.Simulator, name string, buffer *SharedBuffer) *Switch {
	return &Switch{Sim: s, Name: name, Buffer: buffer}
}

// AddPort attaches an egress link and returns its port index. The link's
// policy is replaced with a PortQueue wired to this switch's shared buffer
// and the given marking config.
func (sw *Switch) AddPort(l *Link, red REDConfig) int {
	l.Policy = &PortQueue{Red: red, Buffer: sw.Buffer}
	if sw.Buffer != nil {
		sw.Buffer.ports = append(sw.Buffer.ports, l)
	}
	sw.ports = append(sw.ports, l)
	return len(sw.ports) - 1
}

// Port returns the egress link at index i.
func (sw *Switch) Port(i int) *Link { return sw.ports[i] }

// NumPorts returns the number of attached egress links.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// AddRoute directs packets for dst out of port index i.
func (sw *Switch) AddRoute(dst packet.Addr, port int) {
	if port < 0 || port >= len(sw.ports) {
		panic(fmt.Sprintf("netsim: switch %s: route to invalid port %d", sw.Name, port))
	}
	sw.routes.Put(dst, int32(port)+1)
}

// SetDefaultEcmp installs the equal-cost group, selected per packet by the
// seeded 5-tuple hash, for any destination with no exact route — the
// fat-tree "default route points up" rule.
func (sw *Switch) SetDefaultEcmp(ports ...int) {
	if len(ports) == 0 {
		panic(fmt.Sprintf("netsim: switch %s: empty ECMP group", sw.Name))
	}
	for _, port := range ports {
		if port < 0 || port >= len(sw.ports) {
			panic(fmt.Sprintf("netsim: switch %s: ECMP route to invalid port %d", sw.Name, port))
		}
	}
	sw.defaultEcmp = append([]int(nil), ports...)
}

// ecmpMix64 is the splitmix64 finalizer: full-avalanche, so every input bit
// affects every output bit — in particular the low bits used for modulo port
// selection (the property PR 8's shardIndex lacked).
func ecmpMix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// EcmpHash is the seeded 5-tuple flow hash used for ECMP port selection.
// It is a pure function of (seed, 5-tuple), so a flow stays on one path for
// its lifetime and replays land on the same path for the same seed.
func EcmpHash(seed uint64, src, dst packet.Addr, sport, dport uint16, proto uint8) uint64 {
	a := uint64(src)<<32 | uint64(dst)
	b := uint64(sport)<<32 | uint64(dport)<<16 | uint64(proto)
	return ecmpMix64(ecmpMix64(a^seed) ^ b)
}

// ecmpSelect picks a port from group for packet ip. If the hashed pick is
// down it deterministically re-hashes over the live members (EcmpFailovers);
// ok is false when every member is down (the caller counts a blackhole).
func (sw *Switch) ecmpSelect(group []int, ip packet.IPv4) (port int, ok bool) {
	var sport, dport uint16
	proto := ip.Protocol()
	if proto == packet.ProtoTCP || proto == packet.ProtoUDP {
		// TCP and UDP both lead with source then destination port.
		if pay := ip.Payload(); len(pay) >= 4 {
			sport = uint16(pay[0])<<8 | uint16(pay[1])
			dport = uint16(pay[2])<<8 | uint16(pay[3])
		}
	}
	h := EcmpHash(sw.EcmpSeed, ip.Src(), ip.Dst(), sport, dport, proto)
	port = group[h%uint64(len(group))]
	if !sw.ports[port].IsDown() {
		return port, true
	}
	live := sw.liveBuf[:0]
	for _, q := range group {
		if !sw.ports[q].IsDown() {
			live = append(live, q)
		}
	}
	sw.liveBuf = live[:0]
	if len(live) == 0 {
		return 0, false
	}
	sw.Stats.EcmpFailovers++
	return live[h%uint64(len(live))], true
}

// HandlePacket implements Handler: route and enqueue on the egress port.
func (sw *Switch) HandlePacket(p *packet.Packet) {
	ip := p.IP()
	if !ip.Valid() {
		sw.Stats.NoRoute++
		sw.Pool.Put(p)
		return
	}
	port := int(sw.routes.Get(ip.Dst())) - 1
	if port < 0 {
		if len(sw.defaultEcmp) == 0 {
			sw.Stats.NoRoute++
			sw.Pool.Put(p)
			return
		}
		var ok bool
		if port, ok = sw.ecmpSelect(sw.defaultEcmp, ip); !ok {
			sw.Stats.Blackholes++
			sw.Pool.Put(p)
			return
		}
		sw.Stats.EcmpForwarded++
	}
	if !ip.DecTTL() {
		sw.Stats.TTLDrops++
		sw.Pool.Put(p)
		return
	}
	p.Hops++
	sw.Stats.Forwarded++
	if !sw.ports[port].Send(p) {
		// Queue-policy drop: the packet dies at this switch.
		sw.Pool.Put(p)
	}
}

// TotalDrops sums drops across all egress ports.
func (sw *Switch) TotalDrops() int64 {
	var n int64
	for _, l := range sw.ports {
		n += l.Stats.Drops
	}
	return n
}

// TotalSent sums forwarded packets across all egress ports.
func (sw *Switch) TotalSent() int64 {
	var n int64
	for _, l := range sw.ports {
		l.settle()
		n += l.Stats.SentPackets
	}
	return n
}
