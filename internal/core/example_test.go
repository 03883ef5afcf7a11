package core_test

import (
	"fmt"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

// Example demonstrates the minimal AC/DC deployment: stock CUBIC guests,
// DCTCP enforced in the vSwitch, ECN marking at the switch.
func Example() {
	guest := tcpstack.DefaultConfig() // CUBIC, no ECN — the tenant's stack
	acdc := core.DefaultConfig()      // DCTCP in the vSwitch

	net := topo.Star(3, topo.Options{
		Guest: guest,
		ACDC:  &acdc,
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
	})
	m := workload.NewManager(net)
	workload.Bulk(m, 0, 2)
	workload.Bulk(m, 1, 2)
	net.Sim.RunFor(100 * sim.Millisecond)

	fmt.Println("drops:", net.TotalDrops())
	fmt.Println("queue bounded:", net.Switches[0].Port(2).Stats.MaxQueueBytes < 12*topo.DefaultMarkThreshold)
	fmt.Println("windows enforced:", net.ACDC[0].Stats().RwndRewrites > 0)
	// Output:
	// drops: 0
	// queue bounded: true
	// windows enforced: true
}

// ExamplePolicy shows per-flow differentiation: β priorities and hard
// bandwidth caps assigned by the operator in the vSwitch (§3.4).
func ExamplePolicy() {
	cfg := core.DefaultConfig()
	cfg.FlowPolicy = func(k core.FlowKey) core.Policy {
		p := core.DefaultPolicy()
		switch k.DPort {
		case 443: // latency-sensitive service: full priority
			p.Beta = 1
		case 9000: // batch tier: aggressive back-off
			p.Beta = 0.25
		case 8080: // scavenger: hard cap at 4 segments per RTT
			p.RwndClampBytes = 4 * 8960
		}
		return p
	}
	fmt.Println(cfg.FlowPolicy(core.FlowKey{DPort: 9000}).Beta)
	// Output: 0.25
}

// ExampleVSwitch_Stats reads the datapath observability layer after pushing
// traffic: the quick Stats() view for assertions, and the full metrics
// snapshot (counters, gauges, per-algorithm CWND/α histograms) for
// operator-style reporting.
func ExampleVSwitch_Stats() {
	acdc := core.DefaultConfig()
	net := topo.Star(3, topo.Options{
		Guest: tcpstack.DefaultConfig(),
		ACDC:  &acdc,
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
	})
	m := workload.NewManager(net)
	workload.Bulk(m, 0, 2)
	workload.Bulk(m, 1, 2)
	net.Sim.RunFor(50 * sim.Millisecond)

	v := net.ACDC[0] // sender s1's vSwitch
	snap := v.Metrics.Snapshot()
	fmt.Println("segments flowed:", snap.Counter("egress_segments_total") > 0)
	fmt.Println("stats match snapshot:", v.Stats().EgressSegs == snap.Counter("egress_segments_total"))
	fmt.Println("flows tracked:", snap.Gauge("flow_table_size") > 0)
	recv := net.ACDC[2].Metrics.Snapshot() // receiver's vSwitch saw CE marks
	fmt.Println("fabric marked CE:", recv.Counter("rx_ce_bytes_total") > 0)
	fmt.Println("cwnd sampled:", snap.Histograms["vcc_cwnd_bytes{alg=dctcp}"].Count > 0)
	// Output:
	// segments flowed: true
	// stats match snapshot: true
	// flows tracked: true
	// fabric marked CE: true
	// cwnd sampled: true
}

// ExampleVSwitch_Detach shows turning the module off at runtime — the host
// behaves like a plain vSwitch (the hooks stay installed but pass traffic
// through untouched), and packets already in flight cross it unmodified.
func ExampleVSwitch_Detach() {
	s := sim.New(1)
	h := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	h.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond,
		netsim.HandlerFunc(func(*packet.Packet) {}))
	v := core.Attach(s, h, core.DefaultConfig())
	fmt.Println("attached:", v.Attached())
	v.Detach()
	fmt.Println("attached:", v.Attached())
	// Output:
	// attached: true
	// attached: false
}
