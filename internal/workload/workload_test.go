package workload

import (
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/trace"
)

func starNet(n int) *topo.Net {
	return topo.Star(n, topo.Options{
		Guest: tcpstack.DefaultConfig(),
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
	})
}

func TestMessengerFCT(t *testing.T) {
	net := topo.Star(2, topo.Options{Guest: tcpstack.DefaultConfig()})
	m := NewManager(net)
	ms := m.Open(0, 1)
	var fcts []sim.Duration
	ms.SendMessage(100_000, func(fct sim.Duration) { fcts = append(fcts, fct) })
	ms.SendMessage(50_000, func(fct sim.Duration) { fcts = append(fcts, fct) })
	net.Sim.RunFor(50 * sim.Millisecond)
	if len(fcts) != 2 {
		t.Fatalf("completed %d messages, want 2", len(fcts))
	}
	if fcts[0] <= 0 || fcts[1] <= 0 {
		t.Fatalf("non-positive FCTs: %v", fcts)
	}
	if ms.Delivered() != 150_000 {
		t.Fatalf("delivered %d", ms.Delivered())
	}
}

func TestMessengerOrderedCompletion(t *testing.T) {
	net := topo.Star(2, topo.Options{Guest: tcpstack.DefaultConfig()})
	m := NewManager(net)
	ms := m.Open(0, 1)
	var order []int64
	ms.OnMessage = func(size int64) { order = append(order, size) }
	for _, sz := range []int64{1000, 2000, 3000} {
		ms.SendMessage(sz, nil)
	}
	net.Sim.RunFor(20 * sim.Millisecond)
	if len(order) != 3 || order[0] != 1000 || order[1] != 2000 || order[2] != 3000 {
		t.Fatalf("completion order: %v", order)
	}
}

func TestProberMeasuresRTT(t *testing.T) {
	net := topo.Star(2, topo.Options{Guest: tcpstack.DefaultConfig()})
	m := NewManager(net)
	p := NewProber(m, 0, 1)
	p.Start()
	net.Sim.RunFor(20 * sim.Millisecond)
	p.Stop()
	if p.Samples.N() < 10 {
		t.Fatalf("only %d RTT samples", p.Samples.N())
	}
	// Uncongested base RTT: a few tens of microseconds; surely under 1ms.
	if med := p.Samples.Median(); med < 10_000 || med > 1_000_000 {
		t.Fatalf("median RTT %vns implausible", med)
	}
}

func TestProberSeesQueueing(t *testing.T) {
	// RTT through a congested (drop-tail, CUBIC) bottleneck must far exceed
	// the uncongested RTT — the Figure 2 mechanism. Two senders overload
	// the receiver's downlink (a single sender is NIC-bound and queueless).
	net := topo.Star(4, topo.Options{Guest: tcpstack.DefaultConfig()})
	m := NewManager(net)
	quiet := NewProber(m, 0, 2)
	quiet.Start()
	net.Sim.RunFor(10 * sim.Millisecond)
	quiet.Stop()
	base := quiet.Samples.Median()

	Bulk(m, 1, 2) // two bulk flows congest host 2's downlink
	Bulk(m, 3, 2)
	net.Sim.RunFor(20 * sim.Millisecond) // let the standing queue build
	loaded := NewProber(m, 0, 2)
	loaded.Start()
	net.Sim.Schedule(40*sim.Millisecond, loaded.Stop)
	net.Sim.RunFor(60 * sim.Millisecond)
	if loaded.Samples.N() == 0 {
		t.Fatal("no loaded samples")
	}
	if loaded.Samples.Median() < 5*base {
		t.Fatalf("loaded RTT %.0fns not ≫ base %.0fns", loaded.Samples.Median(), base)
	}
}

func TestIncastRatesFairAndSaturating(t *testing.T) {
	net := topo.Star(9, topo.Options{Guest: tcpstack.DefaultConfig()})
	m := NewManager(net)
	senders := []int{0, 1, 2, 3, 4, 5, 6, 7}
	flows := Incast(m, senders, 8)
	t0 := net.Sim.Now()
	net.Sim.RunFor(80 * sim.Millisecond)
	var bits float64
	for _, f := range flows {
		bits += float64(f.Delivered()) * 8
	}
	if total := bits / (net.Sim.Now() - t0).Seconds(); total < 8e9 {
		t.Fatalf("aggregate %.2f Gbps, want near 10", total/1e9)
	}
}

func TestStrideWorkloadCompletesMice(t *testing.T) {
	net := starNet(17)
	m := NewManager(net)
	var fcts FCTs
	cfg := StrideConfig{N: 17, BgBytes: 4 << 20, MiceBytes: 16 << 10, MicePeriod: 2 * sim.Millisecond}
	Stride(m, cfg, &fcts)
	net.Sim.RunFor(60 * sim.Millisecond)
	if fcts.Mice.N() < 17*10 {
		t.Fatalf("only %d mice completed", fcts.Mice.N())
	}
	if fcts.Background.N() == 0 {
		t.Fatal("no background transfers completed")
	}
}

func TestShuffleRunsToCompletion(t *testing.T) {
	net := starNet(5)
	m := NewManager(net)
	var fcts FCTs
	done := false
	cfg := ShuffleConfig{N: 5, BgBytes: 1 << 20, Concurrency: 2, MiceBytes: 16 << 10, MicePeriod: 2 * sim.Millisecond}
	Shuffle(m, cfg, &fcts, func() { done = true })
	net.Sim.RunFor(2 * sim.Second)
	if !done {
		t.Fatalf("shuffle incomplete: %d background FCTs of %d", fcts.Background.N(), 5*4)
	}
	if fcts.Background.N() != 5*4 {
		t.Fatalf("background transfers %d, want 20", fcts.Background.N())
	}
}

func TestTraceDrivenClassifiesMice(t *testing.T) {
	net := starNet(6)
	m := NewManager(net)
	var fcts FCTs
	cfg := TraceConfig{N: 6, AppsPerServer: 2, Dist: trace.WebSearch(), MiceCutoff: 10 << 10}
	TraceDriven(m, cfg, &fcts)
	net.Sim.RunFor(150 * sim.Millisecond)
	if fcts.Mice.N()+fcts.Background.N() < 50 {
		t.Fatalf("too few completions: mice=%d bg=%d", fcts.Mice.N(), fcts.Background.N())
	}
	if fcts.Mice.N() == 0 || fcts.Background.N() == 0 {
		t.Fatalf("classification degenerate: mice=%d bg=%d", fcts.Mice.N(), fcts.Background.N())
	}
}

func TestOpenPanicsOnSelfConnection(t *testing.T) {
	net := starNet(2)
	m := NewManager(net)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Open(1, 1)
}

// TestMessengerSequentialMessagesAllocateNothing sends messages one at a time
// on one persistent Messenger, as the Prober does: once the connection is up,
// a message that completes before the next is sent allocates nothing.
func TestMessengerSequentialMessagesAllocateNothing(t *testing.T) {
	net := topo.Star(2, topo.Options{Guest: tcpstack.DefaultConfig()})
	ms := NewManager(net).Open(0, 1)
	done := 0
	onDone := func(sim.Duration) { done++ }
	send := func() {
		ms.SendMessage(1000, onDone)
		net.Sim.RunFor(sim.Millisecond)
	}
	for i := 0; i < 4; i++ {
		send()
	}
	if n := testing.AllocsPerRun(50, send); n != 0 {
		t.Fatalf("%.1f allocations per message, want 0", n)
	}
	if done != 4+51 {
		t.Fatalf("%d messages completed, want %d", done, 4+51)
	}
}
