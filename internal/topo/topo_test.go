package topo

import (
	"testing"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
)

func opts() Options {
	return Options{
		Guest: tcpstack.DefaultConfig(),
		RED:   netsim.REDConfig{MarkThresholdBytes: DefaultMarkThreshold},
	}
}

// conserve fails the test when the net's conservation audit does: a packet
// or a buffer byte its accounting cannot place.
func conserve(t *testing.T, n *Net) {
	t.Helper()
	if err := n.CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func xfer(t *testing.T, n *Net, from, to int, bytes int64, d sim.Duration) int64 {
	t.Helper()
	srv := new(*tcpstack.Conn)
	port := uint16(6000 + from)
	n.Stacks[to].Listen(port, func(c *tcpstack.Conn) { *srv = c })
	cli := n.Stacks[from].Dial(n.Addr(to), port)
	cli.Send(bytes)
	n.Sim.RunFor(d)
	conserve(t, n)
	if *srv == nil {
		t.Fatalf("no connection %d→%d", from, to)
	}
	return (*srv).Delivered
}

func TestStarConnectivity(t *testing.T) {
	n := Star(4, opts())
	if got := xfer(t, n, 0, 3, 100_000, 20*sim.Millisecond); got != 100_000 {
		t.Fatalf("delivered %d", got)
	}
	if got := xfer(t, n, 3, 1, 50_000, 20*sim.Millisecond); got != 50_000 {
		t.Fatalf("reverse delivered %d", got)
	}
}

func TestDumbbellConnectivityAndBottleneck(t *testing.T) {
	n := Dumbbell(5, opts())
	// Each sender i reaches receiver 5+i across the trunk.
	for i := 0; i < 5; i++ {
		if got := xfer(t, n, i, 5+i, 10_000, 20*sim.Millisecond); got != 10_000 {
			t.Fatalf("pair %d delivered %d", i, got)
		}
	}
	bp := n.Switches[0].Port(0) // the left→right trunk, the left switch's first port
	if bp.Stats.SentPackets == 0 {
		t.Fatal("no traffic crossed the trunk")
	}
}

func TestDumbbellSharedBottleneck(t *testing.T) {
	n := Dumbbell(5, opts())
	guest := tcpstack.DefaultConfig()
	guest.CC = "dctcp"
	guest.ECN = tcpstack.ECNDCTCP
	// Rebuild with DCTCP guests for a clean fairness check.
	o := opts()
	o.Guest = guest
	n = Dumbbell(5, o)
	srvs := make([]**tcpstack.Conn, 5)
	for i := 0; i < 5; i++ {
		srvs[i] = new(*tcpstack.Conn)
		si := srvs[i]
		n.Stacks[5+i].Listen(5001, func(c *tcpstack.Conn) { *si = c })
		cli := n.Stacks[i].Dial(n.Addr(5+i), 5001)
		cli.Send(1 << 40)
	}
	n.Sim.RunFor(100 * sim.Millisecond)
	conserve(t, n)
	var total int64
	for i, s := range srvs {
		if *s == nil {
			t.Fatalf("flow %d missing", i)
		}
		total += (*s).Delivered
	}
	rate := float64(total) * 8 / n.Sim.Now().Seconds()
	// Five flows share the single 10G trunk.
	if rate < 8.5e9 || rate > 10.1e9 {
		t.Fatalf("aggregate %.2f Gbps, want ≈10 (shared trunk)", rate/1e9)
	}
}

func TestParkingLotConnectivity(t *testing.T) {
	n := ParkingLot(opts())
	// Host 0 is the receiver; hosts 1..5 are senders along the chain.
	for i := 1; i <= 5; i++ {
		if got := xfer(t, n, i, 0, 10_000, 50*sim.Millisecond); got != 10_000 {
			t.Fatalf("sender %d delivered %d", i, got)
		}
	}
	// Reverse path (ACK direction as data) also works.
	if got := xfer(t, n, 0, 5, 10_000, 50*sim.Millisecond); got != 10_000 {
		t.Fatalf("receiver→s5 delivered %d", got)
	}
}

func TestACDCAttachmentViaOptions(t *testing.T) {
	o := opts()
	ac := core.DefaultConfig()
	o.ACDC = &ac
	n := Star(2, o)
	if n.ACDC[0] == nil || n.ACDC[1] == nil {
		t.Fatal("AC/DC not attached")
	}
	if got := xfer(t, n, 0, 1, 200_000, 20*sim.Millisecond); got != 200_000 {
		t.Fatalf("delivered %d with AC/DC attached", got)
	}
	if n.ACDC[0].Stats().EgressSegs == 0 {
		t.Fatal("AC/DC datapath idle")
	}
}

func TestNetAggregates(t *testing.T) {
	n := Star(2, opts())
	if n.TotalDrops() != 0 || n.DropRate() != 0 {
		t.Fatal("fresh net reports drops")
	}
}
