package topo

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
)

type sink struct{ got []*packet.Packet }

func (k *sink) HandlePacket(p *packet.Packet) { k.got = append(k.got, p) }

func TestFatTreeShape(t *testing.T) {
	for _, tc := range []struct {
		k, hpt                 int
		hosts, switches, links int
	}{
		// k=4: 4 cores + 8 ToR + 8 agg = 20 switches; 16 hosts;
		// links = 2 per host + 2*16 pod trunks + 2*16 core trunks = 96.
		{4, 0, 16, 20, 96},
		// Oversubscribed 4:2 at the ToR: double the hosts, same fabric.
		{4, 4, 32, 20, 128},
		// k=6: 9 cores + 18+18 = 45 switches; 54 hosts;
		// trunks: 2*(6*9) pod + 2*(6*9) core = 216; links = 108+216.
		{6, 0, 54, 45, 324},
	} {
		cfg := FatTreeConfig{K: tc.k, HostsPerTor: tc.hpt}
		if got := cfg.Hosts(); got != tc.hosts {
			t.Fatalf("k=%d hpt=%d: Hosts() = %d, want %d", tc.k, tc.hpt, got, tc.hosts)
		}
		net := FatTree(cfg, Options{})
		if len(net.Hosts) != tc.hosts {
			t.Fatalf("k=%d: built %d hosts, want %d", tc.k, len(net.Hosts), tc.hosts)
		}
		if len(net.Switches) != tc.switches {
			t.Fatalf("k=%d: built %d switches, want %d", tc.k, len(net.Switches), tc.switches)
		}
		if len(net.Links) != tc.links {
			t.Fatalf("k=%d: built %d links, want %d", tc.k, len(net.Links), tc.links)
		}
		if !net.HasFabric() {
			t.Fatal("fat-tree does not report HasFabric")
		}
	}
}

func TestFatTreeRejectsOddK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for odd K")
		}
	}()
	FatTree(FatTreeConfig{K: 3}, Options{})
}

// sendRaw injects a routed packet at host from's NIC toward host to and
// returns it for further use; callers drain the sim and inspect sinks.
func sendRaw(n *Net, from, to, sport int) {
	p := packet.BuildIn(n.Pool, n.Addr(from), n.Addr(to), packet.ECT0,
		packet.TCPFields{SrcPort: uint16(sport), DstPort: 80, Flags: packet.FlagACK, Window: 100}, 100)
	n.Hosts[from].Output(p)
}

// TestFatTreeAllPairsConnectivity: every host can reach every other host
// through the static routes + default ECMP groups.
func TestFatTreeAllPairsConnectivity(t *testing.T) {
	net := FatTree(FatTreeConfig{K: 4}, Options{})
	sinks := make([]*sink, len(net.Hosts))
	for i, h := range net.Hosts {
		sinks[i] = &sink{}
		h.Demux = sinks[i]
	}
	want := make([]int, len(net.Hosts))
	for i := range net.Hosts {
		for j := range net.Hosts {
			if i == j {
				continue
			}
			sendRaw(net, i, j, 5000+i)
			want[j]++
		}
	}
	net.Sim.RunAll()
	for j, k := range sinks {
		if len(k.got) != want[j] {
			t.Fatalf("host %d received %d packets, want %d", j, len(k.got), want[j])
		}
		for _, p := range k.got {
			net.Pool.Put(p)
		}
	}
	conserve(t, net)
	for _, sw := range net.Switches {
		if sw.Stats.NoRoute != 0 || sw.Stats.Blackholes != 0 {
			t.Fatalf("switch %s: NoRoute=%d Blackholes=%d on a healthy fabric",
				sw.Name, sw.Stats.NoRoute, sw.Stats.Blackholes)
		}
	}
}

// TestFatTreeEcmpSpreadsUplinks: many distinct cross-pod flows must use
// more than one ToR uplink and more than one core switch.
func TestFatTreeEcmpSpreadsUplinks(t *testing.T) {
	cfg := FatTreeConfig{K: 4}
	net := FatTree(cfg, Options{})
	for i, h := range net.Hosts {
		_ = i
		h.Demux = &sink{}
	}
	src := cfg.HostIndex(0, 0, 0)
	dst := cfg.HostIndex(2, 1, 1)
	for f := 0; f < 64; f++ {
		sendRaw(net, src, dst, 4000+f)
	}
	net.Sim.RunAll()
	uplinks := net.LinksMatching("p0-tor0>*")
	if len(uplinks) != 2 {
		t.Fatalf("ToR uplink pattern matched %d links, want 2", len(uplinks))
	}
	for _, l := range uplinks {
		if l.Stats.SentPackets == 0 {
			t.Fatalf("uplink %s unused across 64 flows — ECMP not spreading", l.Name)
		}
	}
	var coresUsed int
	for _, sw := range net.Switches {
		if len(sw.Name) > 4 && sw.Name[:4] == "core" && sw.Stats.Forwarded > 0 {
			coresUsed++
		}
	}
	if coresUsed < 2 {
		t.Fatalf("only %d cores carried traffic across 64 flows", coresUsed)
	}
}

// TestFatTreeDeterministicReplay: the same seed builds a fabric whose path
// choices are byte-for-byte repeatable (per-link packet counts identical);
// a different seed spreads differently.
func TestFatTreeDeterministicReplay(t *testing.T) {
	run := func(seed int64) map[string]int64 {
		cfg := FatTreeConfig{K: 4}
		net := FatTree(cfg, Options{Seed: seed})
		for _, h := range net.Hosts {
			h.Demux = &sink{}
		}
		for f := 0; f < 32; f++ {
			sendRaw(net, 0, 12, 4000+f)
		}
		net.Sim.RunAll()
		out := map[string]int64{}
		for _, l := range net.Links {
			out[l.Name] = l.Stats.SentPackets
		}
		return out
	}
	a, b := run(1), run(1)
	for name, v := range a {
		if b[name] != v {
			t.Fatalf("replay diverged on %s: %d vs %d", name, v, b[name])
		}
	}
	c := run(2)
	same := true
	for name, v := range a {
		if c[name] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seed change left every per-link count identical — seed not feeding the hash")
	}
}

func TestLinksMatchingAndSwitchLinks(t *testing.T) {
	net := FatTree(FatTreeConfig{K: 4}, Options{})
	if got := net.LinksMatching("p0-tor0>p0-agg0"); len(got) != 1 {
		t.Fatalf("exact match found %d links", len(got))
	}
	if got := net.LinksMatching("core0>*"); len(got) != 4 {
		t.Fatalf("core0 downlink prefix matched %d links, want 4", len(got))
	}
	if got := net.LinksMatching("nope*"); len(got) != 0 {
		t.Fatalf("bogus prefix matched %d links", len(got))
	}
	// p1-tor0: 2 hosts down + 2 agg uplinks as egress ports... egress = 2
	// host downlinks + 2 trunks to aggs = 4; ingress = 2 host uplinks + 2
	// trunks from aggs = 4.
	if got := net.SwitchLinks("p1-tor0"); len(got) != 8 {
		names := make([]string, len(got))
		for i, l := range got {
			names[i] = l.Name
		}
		t.Fatalf("SwitchLinks(p1-tor0) = %d links %v, want 8", len(got), names)
	}
	if got := net.SwitchLinks("missing"); got != nil {
		t.Fatalf("unknown switch returned %d links", len(got))
	}
}

// TestFatTreeToRFailureFailsOver is the tentpole's mechanism test: flows
// from pod 0 to pod 1 keep completing while a core-facing aggregation
// uplink flaps, because the agg re-hashes onto its surviving core uplink.
func TestFatTreeToRFailureFailsOver(t *testing.T) {
	domains, err := faults.ParseDomains("flap@40us,link=p0-agg0>core0,down=40us,up=40us,count=3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := FatTreeConfig{K: 4}
	net := FatTree(cfg, Options{Env: Env{Fabric: domains}})
	sinks := make([]*sink, len(net.Hosts))
	for i, h := range net.Hosts {
		sinks[i] = &sink{}
		h.Demux = sinks[i]
	}
	src := cfg.HostIndex(0, 0, 0)
	dst := cfg.HostIndex(1, 0, 0)
	sent := 0
	for wave := 0; wave < 40; wave++ {
		for f := 0; f < 8; f++ {
			sendRaw(net, src, dst, 4000+wave*8+f)
			sent++
		}
		net.Sim.RunFor(10 * sim.Microsecond)
	}
	net.Sim.RunAll()
	var failovers int64
	for _, sw := range net.Switches {
		failovers += sw.Stats.EcmpFailovers
	}
	if failovers == 0 {
		t.Fatal("no ECMP failovers despite a flapping uplink carrying hashed flows")
	}
	snap := net.FabricSnapshot()
	if snap.Counter("fabric_link_downs_total") != 3 || snap.Counter("fabric_link_ups_total") != 3 {
		t.Fatalf("flap counters: downs=%d ups=%d, want 3/3",
			snap.Counter("fabric_link_downs_total"), snap.Counter("fabric_link_ups_total"))
	}
	if snap.Counter("ecmp_failovers_total") != failovers {
		t.Fatalf("snapshot failovers %d != switch stats %d",
			snap.Counter("ecmp_failovers_total"), failovers)
	}
	// Every packet either arrived or died accountably (down-drain at the
	// flapped link); none vanished.
	delivered := len(sinks[dst].got)
	var downDrops int64
	for _, l := range net.Links {
		downDrops += l.Stats.DropsDown
	}
	if delivered+int(downDrops) != sent {
		t.Fatalf("accounting leak: sent=%d delivered=%d downDrops=%d", sent, delivered, downDrops)
	}
	for _, p := range sinks[dst].got {
		net.Pool.Put(p)
	}
	conserve(t, net)
}

// TestFabricSnapshotQuietOnSinglePath: dumbbells without domains must not
// report fabric state, keeping their telemetry byte-identical.
func TestFabricSnapshotQuietOnSinglePath(t *testing.T) {
	net := Dumbbell(2, Options{})
	if net.HasFabric() {
		t.Fatal("dumbbell reports HasFabric")
	}
	// But arming a domain on a dumbbell link works and flips the signal.
	domains, err := faults.ParseDomains(fmt.Sprintf("link-down@1ms,link=%s,for=100us", "left>right"))
	if err != nil {
		t.Fatal(err)
	}
	net2 := Dumbbell(2, Options{Env: Env{Fabric: domains}})
	if !net2.HasFabric() {
		t.Fatal("dumbbell with armed domains does not report HasFabric")
	}
}

// TestFatTreeStridePinsParentCommit pins a seeded k=4 stride run (native
// DCTCP, four bulk flows per host, 5 ms) to the event count, the bytes each
// host received and the CE marks measured on the commit before the event
// queue gained its near-future wheel: a queue that fires one event out of
// (when, seq) order, twice, or not at all changes at least one of them.
// The event count is the one-event-per-hop link's; bytes and marks are
// still the wheel commit's.
func TestFatTreeStridePinsParentCommit(t *testing.T) {
	g := tcpstack.DefaultConfig()
	g.MTU, g.CC, g.ECN = 9000, "dctcp", tcpstack.ECNDCTCP
	cfg := FatTreeConfig{K: 4}
	net := FatTree(cfg, Options{Guest: g, Seed: 7,
		RED: netsim.REDConfig{MarkThresholdBytes: DefaultMarkThreshold}})
	const port = 5001
	for _, st := range net.Stacks {
		st.Listen(port, func(*tcpstack.Conn) {})
	}
	n := cfg.Hosts()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		for j := 1; j <= 4; j++ {
			c := net.Stacks[i].Dial(net.Addr((i+j)%n), port)
			net.Sim.Schedule(sim.Duration(rng.Int63n(int64(100*sim.Microsecond))), func() { c.Send(64 << 20) })
		}
	}
	net.Sim.RunFor(5 * sim.Millisecond)
	conserve(t, net)

	const wantProcessed, wantMarks = 96910, 2433
	wantRecv := [16]int64{4864363, 5490487, 4641322, 5817728, 4957910, 5765355, 5215296, 5781268,
		4518524, 5699900, 4354478, 5482407, 5139491, 5205941, 4881803, 5754732}
	var marks int64
	for _, l := range net.Links {
		marks += l.Stats.Marks
	}
	var recv [16]int64
	for i, h := range net.Hosts {
		recv[i] = h.RecvBytes
	}
	if net.Sim.Processed != wantProcessed || marks != wantMarks || recv != wantRecv {
		t.Fatalf("stride run: processed=%d marks=%d recv=%v, parent commit gave %d/%d/%v",
			net.Sim.Processed, marks, recv, wantProcessed, wantMarks, wantRecv)
	}
}

// TestACDCChurnPinsParentCommit pins a closed-loop connection-churn run
// through AC/DC vSwitches (17-host star, CUBIC guests, 68 clients that dial,
// send one message, close both ends and dial again for 60 ms; GCInterval 5 ms,
// IdleTimeout 20 ms, and a MaxFlows the table reaches, so the lazy sweep and
// pressure eviction both run) to the event count, the sum of every vSwitch's
// counters and the records of host 0's checkpoint, all measured on the commit
// before flow records were recycled: a record that comes back with state from
// its previous flow, or a flow created, swept or evicted at a different
// packet, changes at least one of them. The event count is the
// one-event-per-hop link's; counters and checkpoint are the commit on which a
// FIN in either direction closes both records. The checkpoint's sha256 is of
// its records' %+v lines, measured by rendering the last wire-format
// checkpoint's decoded records so.
func TestACDCChurnPinsParentCommit(t *testing.T) {
	const hosts, perHost, port, maxFlows = 17, 4, 5001, 1500
	ac := core.DefaultConfig()
	ac.MTU = 1500
	ac.IdleTimeout = 20 * sim.Millisecond
	ac.GCInterval = 5 * sim.Millisecond
	ac.MaxFlows = maxFlows
	g := tcpstack.DefaultConfig()
	g.MTU, g.CC, g.ECN = 1500, "cubic", tcpstack.ECNOff
	net := Star(hosts, Options{Guest: g, ACDC: &ac,
		RED: netsim.REDConfig{MarkThresholdBytes: DefaultMarkThreshold}})

	type cliKey struct {
		addr packet.Addr
		port uint16
	}
	rng := rand.New(rand.NewSource(3))
	want := make(map[cliKey]func(*tcpstack.Conn))
	for _, st := range net.Stacks {
		st.Listen(port, func(srv *tcpstack.Conn) {
			a, p := srv.RemoteAddr()
			attach := want[cliKey{a, p}]
			delete(want, cliKey{a, p})
			attach(srv)
		})
	}
	stopped := false
	var request func(host int)
	request = func(host int) {
		if stopped {
			return
		}
		to := rng.Intn(hosts - 1)
		if to >= host {
			to++
		}
		size := int64(1 + rng.Intn(40_000))
		c := net.Stacks[host].Dial(net.Addr(to), port)
		want[cliKey{net.Addr(host), c.LocalPort()}] = func(srv *tcpstack.Conn) {
			srv.OnRecv = func(int) {
				if srv.Delivered != size {
					return
				}
				// Close from a fresh event, not from inside the receive path.
				net.Sim.Schedule(0, func() {
					c.Close()
					srv.Close()
					request(host)
				})
			}
		}
		c.Send(size)
	}
	for c := 0; c < hosts*perHost; c++ {
		request(c % hosts)
	}
	net.Sim.RunFor(60 * sim.Millisecond)
	stopped = true
	conserve(t, net)

	// core.Stats is all int64 counters; summing field by field keeps the pin
	// one struct literal.
	var sum core.Stats
	sv := reflect.ValueOf(&sum).Elem()
	for _, v := range net.ACDC {
		st := reflect.ValueOf(v.Stats())
		for i := 0; i < sv.NumField(); i++ {
			sv.Field(i).SetInt(sv.Field(i).Int() + st.Field(i).Int())
		}
	}
	h := sha256.New()
	for _, r := range net.ACDC[0].SaveSnapshot() {
		fmt.Fprintf(h, "%+v\n", r)
	}
	sum.SnapshotSaves = 0 // the save above, not the run

	const wantProcessed = 3163147
	wantStats := core.Stats{FlowsCreated: 142743, FlowsRemoved: 123830, PacksAttached: 327140,
		PacksConsumed: 327015, RwndRewrites: 963037, UntrackedSegs: 8, EgressSegs: 1034831,
		IngressSegs: 1034401, FlowsEvicted: 8041, PressureSweeps: 336}
	const wantSnap = "f9a81529056e545e40d71f473911c6f946e9b1598a85516ab2932b1a96b253fe"
	if got := hex.EncodeToString(h.Sum(nil)); net.Sim.Processed != wantProcessed || sum != wantStats || got != wantSnap {
		t.Fatalf("AC/DC churn run: processed=%d\nstats=%+v\nsnapshot sha256=%s\nparent commit gave %d\n%+v\n%s",
			net.Sim.Processed, sum, got, wantProcessed, wantStats, wantSnap)
	}
	if sum.FlowsEvicted == 0 || sum.FlowsRemoved <= sum.FlowsEvicted {
		t.Fatalf("the run must exercise both pressure eviction and the lazy sweep: %+v", sum)
	}
}
