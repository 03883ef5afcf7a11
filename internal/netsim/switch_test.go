package netsim

import (
	"fmt"
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// mkFlowPkt builds a packet for an arbitrary 5-tuple so ECMP tests can sweep
// flow identities.
func mkFlowPkt(src, dst packet.Addr, sport, dport uint16, payload int) *packet.Packet {
	return packet.Build(src, dst, packet.ECT0,
		packet.TCPFields{SrcPort: sport, DstPort: dport, Flags: packet.FlagACK, Window: 100}, payload)
}

// buildEcmpSwitch wires a switch with n uplink ports to per-port sinks and a
// default ECMP group over all of them.
func buildEcmpSwitch(s *sim.Simulator, n int) (*Switch, []*sink) {
	sw := NewSwitch(s, "ecmp", nil)
	sw.Pool = packet.NewPool()
	sinks := make([]*sink, n)
	ports := make([]int, n)
	for i := range sinks {
		sinks[i] = &sink{}
		ports[i] = sw.AddPort(NewLink(s, fmt.Sprintf("up%d", i), 10e9, sim.Microsecond, sinks[i]), REDConfig{})
	}
	sw.SetDefaultEcmp(ports...)
	return sw, sinks
}

func TestSwitchInvalidPacketCountsNoRoute(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "x", nil)
	sw.Pool = packet.NewPool()
	sw.AddPort(NewLink(s, "p", 1e9, 0, &sink{}), REDConfig{})
	sw.HandlePacket(&packet.Packet{Buf: []byte{1, 2, 3}})
	if sw.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", sw.Stats.NoRoute)
	}
}

// TestSwitchNoFlood pins the L3 contract: a destination miss is a counted
// drop, never a broadcast — no port may see the packet.
func TestSwitchNoFlood(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "x", nil)
	sw.Pool = packet.NewPool()
	sinks := make([]*sink, 3)
	for i := range sinks {
		sinks[i] = &sink{}
		sw.AddPort(NewLink(s, fmt.Sprintf("p%d", i), 1e9, 0, sinks[i]), REDConfig{})
	}
	sw.AddRoute(packet.MakeAddr(10, 0, 0, 1), 0)
	sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 0, 9), packet.MakeAddr(10, 0, 0, 99), 1, 2, 10))
	s.RunAll()
	for i, k := range sinks {
		if len(k.got) != 0 {
			t.Fatalf("port %d saw %d packets for an unroutable destination", i, len(k.got))
		}
	}
	if sw.Stats.NoRoute != 1 {
		t.Fatalf("NoRoute = %d, want 1", sw.Stats.NoRoute)
	}
}

func TestSwitchTTLExpiry(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "x", nil)
	sw.Pool = packet.NewPool()
	k := &sink{}
	sw.AddRoute(packet.MakeAddr(10, 0, 0, 2), sw.AddPort(NewLink(s, "p", 1e9, 0, k), REDConfig{}))
	p := mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2), 1, 2, 10)
	for ip := p.IP(); ip[8] > 1; { // the TTL byte
		ip.DecTTL()
	}
	sw.HandlePacket(p)
	s.RunAll()
	if sw.Stats.TTLDrops != 1 || len(k.got) != 0 {
		t.Fatalf("TTLDrops=%d delivered=%d, want 1/0", sw.Stats.TTLDrops, len(k.got))
	}
}

// TestEcmpExactRouteWins: an exact AddRoute for a destination shadows the
// default group.
func TestEcmpExactRouteWins(t *testing.T) {
	s := sim.New(1)
	sw, sinks := buildEcmpSwitch(s, 4)
	dst := packet.MakeAddr(10, 0, 0, 7)
	sw.AddRoute(dst, 2)
	for i := 0; i < 32; i++ {
		sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 1, byte(i+1)), dst, uint16(1000+i), 80, 10))
	}
	s.RunAll()
	if len(sinks[2].got) != 32 {
		t.Fatalf("exact-route port got %d/32", len(sinks[2].got))
	}
	if sw.Stats.EcmpForwarded != 0 {
		t.Fatalf("EcmpForwarded = %d on exact-routed traffic", sw.Stats.EcmpForwarded)
	}
}

// TestEcmpFlowStickiness: one 5-tuple always hashes to one port, and the
// choice is a pure function of the seed (replay determinism).
func TestEcmpFlowStickiness(t *testing.T) {
	s := sim.New(1)
	sw, sinks := buildEcmpSwitch(s, 4)
	sw.EcmpSeed = 42
	for i := 0; i < 20; i++ {
		sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9), 5001, 80, 10))
	}
	s.RunAll()
	var nonEmpty int
	for _, k := range sinks {
		if len(k.got) > 0 {
			nonEmpty++
			if len(k.got) != 20 {
				t.Fatalf("flow split across ports: %d/20 on one port", len(k.got))
			}
		}
	}
	if nonEmpty != 1 {
		t.Fatalf("flow used %d ports, want exactly 1", nonEmpty)
	}
	if sw.Stats.EcmpForwarded != 20 {
		t.Fatalf("EcmpForwarded = %d, want 20", sw.Stats.EcmpForwarded)
	}
}

// TestEcmpDistribution sweeps distinct flows and requires every port to take
// a reasonable share. The sub-tests vary exactly one 5-tuple field with all
// others pinned — including low-bits-only sweeps of the ports and addresses,
// the shape that exposed PR 8's shardIndex degeneracy (a hash whose low bits
// ignore part of the key sends every such flow to one port).
func TestEcmpDistribution(t *testing.T) {
	const nPorts, flows = 8, 1024
	cases := []struct {
		name string
		pkt  func(i int) *packet.Packet
	}{
		{"sport-low-bits", func(i int) *packet.Packet {
			return mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9), uint16(i), 80, 10)
		}},
		{"dport-low-bits", func(i int) *packet.Packet {
			return mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9), 5001, uint16(i), 10)
		}},
		{"src-low-bits", func(i int) *packet.Packet {
			return mkFlowPkt(packet.MakeAddr(10, 0, byte(i/250), byte(i%250+1)), packet.MakeAddr(10, 0, 9, 9), 5001, 80, 10)
		}},
		{"dst-low-bits", func(i int) *packet.Packet {
			return mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 1, byte(i/250), byte(i%250+1)), 5001, 80, 10)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			sw, sinks := buildEcmpSwitch(s, nPorts)
			sw.EcmpSeed = 1
			for i := 0; i < flows; i++ {
				sw.HandlePacket(tc.pkt(i))
			}
			s.RunAll()
			// Expected 128 per port; a uniform hash stays well inside
			// [expected/2, expected*2], while a degenerate one concentrates.
			expected := flows / nPorts
			for i, k := range sinks {
				if len(k.got) < expected/2 || len(k.got) > expected*2 {
					counts := make([]int, nPorts)
					for j, kk := range sinks {
						counts[j] = len(kk.got)
					}
					t.Fatalf("port %d got %d flows (expected ~%d); distribution %v",
						i, len(k.got), expected, counts)
				}
			}
		})
	}
}

// TestEcmpSeedChangesSpread: different seeds produce different flow→port
// assignments (the property per-switch seeds rely on to avoid polarization).
func TestEcmpSeedChangesSpread(t *testing.T) {
	assign := func(seed uint64) []uint64 {
		out := make([]uint64, 256)
		for i := range out {
			out[i] = EcmpHash(seed, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9),
				uint16(5000+i), 80, packet.ProtoTCP) % 4
		}
		return out
	}
	a, b := assign(1), assign(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed change left every flow on the same port")
	}
}

// TestEcmpFailover: when the hashed port is down the pick deterministically
// re-hashes onto a live member; when every member is down the packet is a
// counted blackhole returned to the pool.
func TestEcmpFailover(t *testing.T) {
	s := sim.New(1)
	sw, sinks := buildEcmpSwitch(s, 2)
	sw.EcmpSeed = 7
	p := mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9), 5001, 80, 10)
	sw.HandlePacket(p)
	s.RunAll()
	primary := 0
	if len(sinks[1].got) == 1 {
		primary = 1
	}
	other := 1 - primary

	sw.Port(primary).Down()
	sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9), 5001, 80, 10))
	s.RunAll()
	if len(sinks[other].got) != 1 {
		t.Fatalf("failover flow not delivered on surviving port (got %d)", len(sinks[other].got))
	}
	if sw.Stats.EcmpFailovers != 1 {
		t.Fatalf("EcmpFailovers = %d, want 1", sw.Stats.EcmpFailovers)
	}

	sw.Port(other).Down()
	puts := sw.Pool.Puts
	sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9), 5001, 80, 10))
	s.RunAll()
	if sw.Stats.Blackholes != 1 {
		t.Fatalf("Blackholes = %d, want 1", sw.Stats.Blackholes)
	}
	if sw.Pool.Puts != puts+1 {
		t.Fatalf("blackholed packet not returned to pool (puts %d -> %d)", puts, sw.Pool.Puts)
	}

	// Recovery: the primary comes back and the flow lands on it again.
	sw.Port(primary).Up()
	sw.Port(other).Up()
	sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 9, 9), 5001, 80, 10))
	s.RunAll()
	if len(sinks[primary].got) != 2 {
		t.Fatalf("recovered flow not re-hashed to primary (got %d)", len(sinks[primary].got))
	}
}

// TestExactRouteTakesPrecedence: whichever order they are added in, an exact
// route wins over the default group, and a route added again replaces the
// first.
func TestExactRouteTakesPrecedence(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "ecmp", nil)
	sw.Pool = packet.NewPool()
	sinks := make([]*sink, 4)
	for i := range sinks {
		sinks[i] = &sink{}
		sw.AddPort(NewLink(s, fmt.Sprintf("up%d", i), 10e9, sim.Microsecond, sinks[i]), REDConfig{})
	}
	before, after, rerouted := packet.MakeAddr(10, 0, 9, 1), packet.MakeAddr(10, 0, 9, 2), packet.MakeAddr(10, 0, 9, 3)
	sw.AddRoute(before, 3)
	sw.SetDefaultEcmp(0, 1)
	sw.AddRoute(after, 3)
	sw.AddRoute(rerouted, 0)
	sw.AddRoute(rerouted, 2)
	for i := 0; i < 32; i++ {
		for _, dst := range []packet.Addr{before, after} {
			sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), dst, uint16(4000+i), 80, 10))
		}
	}
	s.RunAll()
	if got := len(sinks[3].got); got != 64 || sw.Stats.EcmpForwarded != 0 {
		t.Fatalf("exact routes carried %d of 64 packets, %d hashed", got, sw.Stats.EcmpForwarded)
	}
	for i := 0; i < 32; i++ {
		sw.HandlePacket(mkFlowPkt(packet.MakeAddr(10, 0, 0, 1), rerouted, uint16(4000+i), 80, 10))
	}
	s.RunAll()
	if got := len(sinks[2].got); got != 32 || len(sinks[0].got)+len(sinks[1].got) != 0 {
		t.Fatalf("replaced route carried %d of 32 packets; the first route and the group %d", got, len(sinks[0].got)+len(sinks[1].got))
	}
}

func TestEcmpGroupValidation(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "x", nil)
	sw.AddPort(NewLink(s, "p", 1e9, 0, &sink{}), REDConfig{})
	for name, fn := range map[string]func(){
		"empty-group": func() { sw.SetDefaultEcmp() },
		"bad-port":    func() { sw.SetDefaultEcmp(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzECMPHash checks, for arbitrary 5-tuples and seeds, that the hash is
// deterministic and that a low-bit sweep of any single field never
// degenerates to one bucket — the property a masked or truncated hash (like
// PR 8's shardIndex bug) would violate with near certainty.
func FuzzECMPHash(f *testing.F) {
	f.Add(uint64(1), uint32(0x0a000001), uint32(0x0a000909), uint16(5001), uint16(80), uint8(6))
	f.Add(uint64(0), uint32(0), uint32(0), uint16(0), uint16(0), uint8(0))
	f.Add(uint64(0xffffffffffffffff), uint32(0xffffffff), uint32(0xffffffff), uint16(0xffff), uint16(0xffff), uint8(17))
	f.Fuzz(func(t *testing.T, seed uint64, src, dst uint32, sport, dport uint16, proto uint8) {
		h := EcmpHash(seed, packet.Addr(src), packet.Addr(dst), sport, dport, proto)
		if h2 := EcmpHash(seed, packet.Addr(src), packet.Addr(dst), sport, dport, proto); h2 != h {
			t.Fatalf("non-deterministic: %x vs %x", h, h2)
		}
		const nPorts = 4
		buckets := map[uint64]bool{}
		for i := 0; i < 64; i++ {
			buckets[EcmpHash(seed, packet.Addr(src), packet.Addr(dst), sport+uint16(i), dport, proto)%nPorts] = true
		}
		if len(buckets) < 2 {
			t.Fatalf("64 consecutive source ports all hashed to one of %d buckets", nPorts)
		}
		buckets = map[uint64]bool{}
		for i := 0; i < 64; i++ {
			buckets[EcmpHash(seed, packet.Addr(src+uint32(i)), packet.Addr(dst), sport, dport, proto)%nPorts] = true
		}
		if len(buckets) < 2 {
			t.Fatalf("64 consecutive source addresses all hashed to one of %d buckets", nPorts)
		}
	})
}

// TestSwitchForwardZeroAlloc pins the route lookup on the per-packet path:
// a warm switch with a hundred exact routes and a default group forwards a
// packet down each kind of route without allocating.
func TestSwitchForwardZeroAlloc(t *testing.T) {
	s := sim.New(1)
	sw := NewSwitch(s, "tor", nil)
	pool := packet.NewPool()
	sw.Pool = pool
	ports := make([]int, 4)
	for i := range ports {
		ports[i] = sw.AddPort(NewLink(s, fmt.Sprintf("p%d", i), 10e9, sim.Microsecond,
			HandlerFunc(func(p *packet.Packet) { pool.Put(p) })), REDConfig{})
	}
	const n = 100
	dsts := make([]packet.Addr, 0, 2*n)
	for i := range n {
		exact := packet.MakeAddr(10, 0, 0, byte(i))
		sw.AddRoute(exact, ports[i%len(ports)])
		dsts = append(dsts, exact, packet.MakeAddr(10, 2, 0, byte(i)))
	}
	sw.SetDefaultEcmp(ports...)
	src := packet.MakeAddr(10, 9, 9, 9)
	i := 0
	round := func() {
		sw.HandlePacket(packet.BuildIn(pool, src, dsts[i], packet.ECT0,
			packet.TCPFields{SrcPort: uint16(i), DstPort: 5001, Flags: packet.FlagACK}, 1000))
		s.RunAll()
		i = (i + 1) % len(dsts)
	}
	for range 2 * len(dsts) {
		round()
	}
	if n := testing.AllocsPerRun(1000, round); n != 0 {
		t.Errorf("forward round: %v allocs, want 0", n)
	}
	st := sw.Stats
	if st.NoRoute != 0 || st.Forwarded == 0 || st.EcmpForwarded != st.Forwarded/2 {
		t.Errorf("stats %+v: want no drops and half the packets hashed", st)
	}
	if out := pool.Gets - pool.Puts; out != 0 {
		t.Errorf("%d packets not returned to the pool", out)
	}
}
