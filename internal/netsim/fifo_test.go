package netsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// TestLinkTxDoneSendDeliversOnce: a NIC whose tx completion sends the next
// packet on the same link — with the queue empty, and with packets behind
// the one departing — delivers each packet exactly once, in send order, at
// SentAt+Delay, and leaves no event behind. The departing packet must not
// count as in flight before its own delivery event does, or the Send re-arms
// the lazy delivery event for it and it arrives twice.
func TestLinkTxDoneSendDeliversOnce(t *testing.T) {
	for _, burst := range []int{1, 3} {
		const n, delay = 200, 2 * sim.Microsecond
		s := sim.New(1)
		pool := packet.NewPool()
		var got []uint16
		l := NewLink(s, "nic", 10e9, delay, nil)
		l.Pool = pool
		l.Dst = HandlerFunc(func(p *packet.Packet) {
			if want := sim.Time(p.SentAt) + delay; s.Now() != want {
				t.Fatalf("burst %d: packet %d delivered at %v, due at %v", burst, p.IP().TCP().SrcPort(), s.Now(), want)
			}
			got = append(got, p.IP().TCP().SrcPort())
			pool.Put(p)
		})
		sent := 0
		send := func() {
			l.Send(packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2), packet.ECT0,
				packet.TCPFields{SrcPort: uint16(sent), DstPort: 80, Flags: packet.FlagACK}, 500))
			sent++
		}
		l.OnTxDone = func(*packet.Packet) {
			if sent < n {
				send()
			}
		}
		for range burst {
			send()
		}
		s.RunAll()
		if len(got) != n || s.Pending() != 0 {
			t.Fatalf("burst %d: %d deliveries of %d packets, %d events left", burst, len(got), n, s.Pending())
		}
		for i, port := range got {
			if int(port) != i {
				t.Fatalf("burst %d: delivery %d is packet %d", burst, i, port)
			}
		}
		if err := CheckConservation([]*Link{l}, nil, pool, 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLinkFIFOPinsTwoRingLink drives a switch port and a NIC through bursts
// while their fault hooks (loss, duplication, jitter) swap on and off and
// the links flap, with packets both queued and in flight at every swap and
// Down, and pins what the link with a separate queue ring and flight ring
// gave: a digest of every delivery (link, instant, packet, departure), the
// event count, and each link's conservation counters.
func TestLinkFIFOPinsTwoRingLink(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	buf := NewSharedBuffer(48<<10, 1.0)
	h := fnv.New64a()
	var links [2]*Link
	for i := range links {
		i := i
		l := NewLink(s, fmt.Sprint("l", i), 10e9, 3*sim.Microsecond, HandlerFunc(func(p *packet.Packet) {
			fmt.Fprint(h, i, s.Now(), p.IP().TCP().SrcPort(), p.SentAt)
			if err := links[i].checkConservation(); err != nil {
				t.Fatal(err)
			}
			pool.Put(p)
		}))
		l.Pool = pool
		links[i] = l
	}
	links[0].Policy = &PortQueue{Buffer: buf, Red: REDConfig{MarkThresholdBytes: 12000}}
	txDone := 0
	links[1].OnTxDone = func(*packet.Packet) { txDone++ }

	rng := rand.New(rand.NewSource(11))
	hook := func(l *Link, p *packet.Packet, deliver func(*packet.Packet, sim.Duration)) {
		switch rng.Intn(6) {
		case 0:
			l.Stats.DropsFault++
			l.Pool.Put(p)
		case 1:
			deliver(p.Clone(), sim.Duration(rng.Intn(2000)))
			deliver(p, 0)
		default:
			deliver(p, sim.Duration(rng.Intn(500)))
		}
	}
	sent := 0
	for at := sim.Duration(0); at < 400*sim.Microsecond; at += sim.Duration(1+rng.Intn(3000)) * sim.Nanosecond {
		l, burst := links[rng.Intn(2)], 1+rng.Intn(8)
		s.At(at, func() {
			for range burst {
				p := packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2), packet.ECT0,
					packet.TCPFields{SrcPort: uint16(sent), DstPort: 80, Flags: packet.FlagACK}, 200+rng.Intn(1300))
				sent++
				if !l.Send(p) {
					pool.Put(p)
				}
			}
		})
	}
	// busy counts the swaps and Downs that found packets both queued and
	// past serialization.
	busy, events := 0, 0
	busyAt := func(l *Link) {
		events++
		if q := l.QueueLen(); q > 0 && l.held() > q {
			busy++
		}
	}
	for at := 7 * sim.Microsecond; at < 400*sim.Microsecond; at += 13 * sim.Microsecond {
		l := links[int(at/sim.Microsecond)%2]
		s.At(at, func() {
			busyAt(l)
			if l.Fault() == nil {
				l.SetFault(hook)
			} else {
				l.SetFault(nil)
			}
		})
	}
	for at := 11 * sim.Microsecond; at < 400*sim.Microsecond; at += 29 * sim.Microsecond {
		l := links[int(at/sim.Microsecond)%2]
		s.At(at, func() { busyAt(l); l.Down() })
		s.At(at+1500*sim.Nanosecond, l.Up)
	}
	s.RunAll()
	if err := CheckConservation(links[:], nil, pool, 0); err != nil {
		t.Fatal(err)
	}
	if busy < events*2/3 {
		t.Fatalf("only %d of %d swaps and Downs found packets queued and in flight: the test lost its teeth", busy, events)
	}

	type counts struct{ delivered, discarded, dups, faultLoss, downDrops, sent, drops int64 }
	var got [2]counts
	for i, l := range links {
		got[i] = counts{l.delivered, l.discarded, l.dups, l.Stats.DropsFault, l.Stats.DropsDown, l.Stats.SentPackets, l.Stats.Drops}
	}
	const wantDigest, wantProcessed, wantSent, wantTxDone = 0x869c1364e6a49831, 1846, 1216, 544
	wantCounts := [2]counts{{443, 107, 30, 47, 136, 460, 43}, {414, 131, 36, 35, 164, 413, 0}}
	if h.Sum64() != wantDigest || s.Processed != wantProcessed || sent != wantSent || txDone != wantTxDone || got != wantCounts {
		t.Fatalf("digest %#x, processed %d, sent %d, tx done %d, counts %+v; the two-ring link gave %#x, %d, %d, %d, %+v",
			h.Sum64(), s.Processed, sent, txDone, got, uint64(wantDigest), wantProcessed, wantSent, wantTxDone, wantCounts)
	}
}
