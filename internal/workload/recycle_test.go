package workload

import (
	"math/rand"
	"testing"
	"unsafe"

	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/netsim"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
)

// inEvent runs fn inside a simulator event of its own. A Messenger released
// by the last event that ran is not reusable until another one has started.
func inEvent(net *topo.Net, fn func()) {
	net.Sim.Schedule(0, fn)
	net.Sim.RunFor(0)
}

// closeBoth closes both ends of ms from a fresh event.
func closeBoth(net *topo.Net, ms *Messenger) {
	inEvent(net, func() {
		ms.Cli.Close()
		ms.Srv().Close()
	})
}

// TestMessengerSizeClass pins a Messenger, with the fields that recycle it,
// inside the 96-byte malloc size class.
func TestMessengerSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Messenger{}); n > 96 {
		t.Fatalf("Messenger is %d bytes, over the 96-byte size class", n)
	}
}

// TestMessengerReusedAfterBothEOF follows one record through a reuse: once
// both ends have received the other's FIN, the next Open in a later event
// returns it in the state a fresh one has, and a message on it completes in
// the time it takes on a fresh Manager. A record with one end still open is
// never handed out, nor is one in the event that released it.
func TestMessengerReusedAfterBothEOF(t *testing.T) {
	fresh := topo.Star(2, topo.Options{Guest: tcpstack.DefaultConfig()})
	var want sim.Duration
	inEvent(fresh, func() { NewManager(fresh).Open(0, 1).SendMessage(20_000, func(d sim.Duration) { want = d }) })
	fresh.Sim.RunFor(10 * sim.Millisecond)

	net := topo.Star(2, topo.Options{Guest: tcpstack.DefaultConfig()})
	m := NewManager(net)
	var ms *Messenger
	inEvent(net, func() {
		ms = m.Open(0, 1)
		ms.OnMessage = func(int64) {}
		ms.SendMessage(30_000, nil)
	})
	net.Sim.RunFor(10 * sim.Millisecond)
	if ms.Delivered() != 30_000 {
		t.Fatalf("delivered %d before the close, want 30000", ms.Delivered())
	}
	closeBoth(net, ms)
	net.Sim.RunFor(10 * sim.Millisecond)

	var again *Messenger
	var got sim.Duration
	inEvent(net, func() {
		again = m.Open(0, 1)
		if again != ms {
			t.Fatalf("Open after both EOFs returned a new record")
		}
		if again.Srv() != nil || again.Delivered() != 0 || again.OnMessage != nil ||
			again.queued != 0 || len(again.msgs) != 0 {
			t.Fatalf("reused record not clean: srv=%v delivered=%d OnMessage set=%v queued=%d msgs=%d",
				again.Srv(), again.Delivered(), again.OnMessage != nil, again.queued, len(again.msgs))
		}
		again.SendMessage(20_000, func(d sim.Duration) { got = d })
	})
	net.Sim.RunFor(10 * sim.Millisecond)
	if got != want || want == 0 {
		t.Fatalf("FCT on the reused record %v, on a fresh Manager %v", got, want)
	}

	// One end closed: the server has seen EOF, the client has not.
	half := again
	inEvent(net, func() { half.Cli.Close() })
	net.Sim.RunFor(10 * sim.Millisecond)
	inEvent(net, func() {
		if other := m.Open(0, 1); other == half {
			t.Fatalf("Open reused a Messenger whose server end is still open")
		}
	})

	// An Open in the event of the second EOF takes the record released
	// before, not the one just released; an Open in a later event does take
	// it. Each end's callback is wrapped, not replaced, so the record still
	// counts both EOFs.
	inEvent(net, func() { half.Srv().Close() })
	last := m.Open(1, 0)
	net.Sim.RunFor(10 * sim.Millisecond)
	var sameEvent *Messenger
	for _, c := range []*tcpstack.Conn{last.Cli, last.Srv()} {
		eof := c.OnPeerClose
		c.OnPeerClose = func() {
			eof()
			if last.Cli == nil && sameEvent == nil {
				sameEvent = m.Open(0, 1)
			}
		}
	}
	closeBoth(net, last)
	net.Sim.RunFor(10 * sim.Millisecond)
	if sameEvent != half {
		t.Fatalf("Open in the releasing event returned %p, want the earlier release %p (just released: %p)",
			sameEvent, half, last)
	}
	inEvent(net, func() {
		if m.Open(1, 0) != last {
			t.Fatalf("Open in a later event did not reuse the released record")
		}
	})
}

// TestMessengerChurnAllocatesNothing runs warm open → SendMessage →
// close-both cycles whose callbacks are built once: the Messenger, its
// message queue and the server's callbacks all come back from the previous
// cycle, so a cycle allocates nothing.
func TestMessengerChurnAllocatesNothing(t *testing.T) {
	net := topo.Star(2, topo.Options{Guest: tcpstack.DefaultConfig()})
	m := NewManager(net)
	var ms *Messenger
	done := 0
	onDone := func(sim.Duration) { done++ }
	open := func() {
		ms = m.Open(0, 1)
		ms.SendMessage(10_000, onDone)
	}
	shut := func() {
		ms.Cli.Close()
		ms.Srv().Close()
	}
	cycle := func() {
		net.Sim.Schedule(0, open)
		net.Sim.RunFor(sim.Millisecond)
		net.Sim.Schedule(0, shut)
		net.Sim.RunFor(sim.Millisecond)
	}
	// Past TIME_WAIT (40 ms), so its table has stopped growing.
	for i := 0; i < 60; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("%.1f allocations per open/send/close cycle, want 0", n)
	}
	if done != 60+51 {
		t.Fatalf("%d messages completed, want %d", done, 60+51)
	}
}

// TestMessengerChurnPinsParentCommit pins a seeded closed-loop churn run (a
// 5-host star under AC/DC, CUBIC guests, 8 clients that open a Messenger,
// send one message, close both ends from a fresh event and open again, under
// the "chaos" fault profile, so FINs and final ACKs are lost, duplicated and
// retransmitted while their Messengers are reused) to the event count, the
// bytes each host received and a hash of the FCT sequence, all measured on the
// commit before Messengers were recycled: a stale Conn that reaches a
// recycled record, or a record that comes back with state from its previous
// life, changes at least one of them.
func TestMessengerChurnPinsParentCommit(t *testing.T) {
	const hosts, clients = 5, 8
	ac := core.DefaultConfig()
	chaos, _ := faults.Lookup("chaos")
	net := topo.Star(hosts, topo.Options{Guest: tcpstack.DefaultConfig(), ACDC: &ac,
		RED: netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
		Env: topo.Env{Faults: &chaos}})
	m := NewManager(net)
	rng := rand.New(rand.NewSource(5))
	var recv [hosts]int64
	var fctHash uint64 = 14695981039346656037 // FNV-1a over the FCTs in completion order
	completed := 0
	stopped := false
	var request func(cli int)
	request = func(cli int) {
		if stopped {
			return
		}
		host := cli % hosts
		to := rng.Intn(hosts - 1)
		if to >= host {
			to++
		}
		size := int64(1 + rng.Intn(60_000))
		ms := m.Open(host, to)
		ms.SendMessage(size, func(fct sim.Duration) {
			recv[to] += size
			completed++
			for v := uint64(fct); v != 0; v >>= 8 {
				fctHash = (fctHash ^ (v & 0xff)) * 1099511628211
			}
			// Close from a fresh event; odd clients close the server first.
			net.Sim.Schedule(0, func() {
				if cli%2 == 1 {
					ms.Srv().Close()
					ms.Cli.Close()
				} else {
					ms.Cli.Close()
					ms.Srv().Close()
				}
				request(cli)
			})
		})
	}
	for c := 0; c < clients; c++ {
		request(c)
	}
	net.Sim.RunFor(200 * sim.Millisecond)
	stopped = true
	net.Sim.RunFor(500 * sim.Millisecond)

	const (
		wantProcessed = 51931
		wantCompleted = 903
		wantHash      = 0xd09fa26d4644e3cc
	)
	wantRecv := [hosts]int64{6187087, 4486473, 4967244, 4747994, 6327066}
	if net.Sim.Processed != wantProcessed || completed != wantCompleted || fctHash != wantHash || recv != wantRecv {
		t.Fatalf("churn run: processed=%d completed=%d fct hash=%#x recv=%v\nparent commit gave %d/%d/%#x/%v",
			net.Sim.Processed, completed, fctHash, recv, wantProcessed, wantCompleted, uint64(wantHash), wantRecv)
	}
	for i, st := range net.Stacks {
		if st.NumConns() != 0 {
			t.Fatalf("stack %d: %d connections left after the drain", i, st.NumConns())
		}
	}
}
