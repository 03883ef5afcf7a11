package tcpstack

import (
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/sim"
)

// These integration tests check the congestion dynamics the paper's
// evaluation relies on: DCTCP parks the bottleneck queue near the marking
// threshold K with no loss, while CUBIC without ECN fills the shared buffer
// and drops.

func runTwoToOne(t *testing.T, cfg Config, red netsim.REDConfig, d sim.Duration) (*bench, []*Conn) {
	t.Helper()
	b := newBench(t, 3, cfg, red, 10e9)
	var srvs []*Conn
	b.stacks[2].Listen(5001, func(c *Conn) { srvs = append(srvs, c) })
	c0 := b.stacks[0].Dial(b.hosts[2].Addr, 5001)
	c1 := b.stacks[1].Dial(b.hosts[2].Addr, 5001)
	c0.Send(1 << 40)
	c1.Send(1 << 40)
	b.s.RunFor(d)
	if len(srvs) != 2 {
		t.Fatalf("accepted %d conns", len(srvs))
	}
	return b, srvs
}

func TestDCTCPHoldsQueueNearK(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CC = "dctcp"
	cfg.ECN = ECNDCTCP
	const K = 90_000
	b, srvs := runTwoToOne(t, cfg, netsim.REDConfig{MarkThresholdBytes: K}, 100*sim.Millisecond)

	bottleneck := b.sw.Port(2)
	if bottleneck.Stats.Marks == 0 {
		t.Fatal("no CE marks: DCTCP feedback loop not exercised")
	}
	if drops := b.sw.TotalDrops(); drops != 0 {
		t.Fatalf("DCTCP dropped %d packets", drops)
	}
	// Queue must stay bounded near K, far below the 9MB buffer. Allow a few
	// RTTs of overshoot (slow-start ends with a burst).
	if q := bottleneck.Stats.MaxQueueBytes; q > 12*K {
		t.Fatalf("max queue %dB, want bounded near K=%d", q, K)
	}
	// Both flows should get roughly half the link.
	total := srvs[0].Delivered + srvs[1].Delivered
	rate := float64(total) * 8 / b.s.Now().Seconds()
	if rate < 8.5e9 {
		t.Fatalf("aggregate rate %.2f Gbps, want >8.5", rate/1e9)
	}
	lo, hi := srvs[0].Delivered, srvs[1].Delivered
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(lo)/float64(hi) < 0.5 {
		t.Fatalf("unfair split: %d vs %d", lo, hi)
	}
}

func TestCubicFillsSharedBuffer(t *testing.T) {
	cfg := DefaultConfig() // cubic, ECN off
	b, srvs := runTwoToOne(t, cfg, netsim.REDConfig{}, 200*sim.Millisecond)

	bottleneck := b.sw.Port(2)
	// With drop-tail against a 9MB shared buffer (DT α=1 → up to ~4.5MB for
	// one port), CUBIC must drive the queue into the megabytes and drop.
	if q := bottleneck.Stats.MaxQueueBytes; q < 1<<20 {
		t.Fatalf("max queue only %dB; CUBIC should fill the buffer", q)
	}
	if b.sw.TotalDrops() == 0 {
		t.Fatal("no drops: CUBIC never hit the buffer limit")
	}
	total := srvs[0].Delivered + srvs[1].Delivered
	rate := float64(total) * 8 / b.s.Now().Seconds()
	if rate < 8e9 {
		t.Fatalf("aggregate rate %.2f Gbps, want >8 despite drops", rate/1e9)
	}
}

func TestDCTCPQueueFarBelowCubicQueue(t *testing.T) {
	// The Figure 2 contrast: same offered load, an order of magnitude less
	// queueing under DCTCP.
	cubic := DefaultConfig()
	bC, _ := runTwoToOne(t, cubic, netsim.REDConfig{}, 100*sim.Millisecond)

	dctcp := DefaultConfig()
	dctcp.CC = "dctcp"
	dctcp.ECN = ECNDCTCP
	bD, _ := runTwoToOne(t, dctcp, netsim.REDConfig{MarkThresholdBytes: 90_000}, 100*sim.Millisecond)

	qC := bC.sw.Port(2).AvgQueueBytes()
	qD := bD.sw.Port(2).AvgQueueBytes()
	if qD*5 > qC {
		t.Fatalf("DCTCP avg queue %f not far below CUBIC's %f", qD, qC)
	}
}
