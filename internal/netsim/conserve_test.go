package netsim

import (
	"strings"
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

// conserveFixture is a two-port switch on one shared buffer, fed through an
// ingress link, with every delivered packet returned to the pool.
func conserveFixture() (*sim.Simulator, *packet.Pool, *Switch, *Link) {
	s := sim.New(1)
	pool := packet.NewPool()
	sw := NewSwitch(s, "sw", NewSharedBuffer(64<<10, 1.0))
	sw.Pool = pool
	drain := HandlerFunc(func(p *packet.Packet) { pool.Put(p) })
	for i, dst := range []packet.Addr{packet.MakeAddr(10, 0, 0, 2), packet.MakeAddr(10, 0, 0, 3)} {
		l := NewLink(s, "out"+string(rune('a'+i)), 1e9, 2*sim.Microsecond, drain)
		l.Pool = pool
		sw.AddRoute(dst, sw.AddPort(l, REDConfig{MarkThresholdBytes: 8000}))
	}
	in := NewLink(s, "in", 10e9, sim.Microsecond, sw)
	in.Pool = pool
	return s, pool, sw, in
}

func conserveLinks(sw *Switch, in *Link) []*Link { return []*Link{in, sw.Port(0), sw.Port(1)} }

// TestConservationCleanUnderFaultsAndFlaps: duplication, loss and a flapping
// port keep every identity, mid-run and drained.
func TestConservationCleanUnderFaultsAndFlaps(t *testing.T) {
	s, pool, sw, in := conserveFixture()
	n := 0
	in.SetFault(func(l *Link, p *packet.Packet, deliver func(*packet.Packet, sim.Duration)) {
		switch n++; n % 5 {
		case 0: // loss, accounted the way internal/faults does it
			l.Stats.DropsFault++
			l.Pool.Put(p)
		case 1: // duplicate
			deliver(p.Clone(), 0)
			deliver(p, 300)
		default:
			deliver(p, 0)
		}
	})
	for i := 0; i < 400; i++ {
		dst := packet.MakeAddr(10, 0, 0, byte(2+i%2))
		in.Send(packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), dst, packet.ECT0,
			packet.TCPFields{SrcPort: uint16(i), DstPort: 80, Flags: packet.FlagACK}, 1400))
		s.RunFor(700 * sim.Nanosecond)
		if i == 150 {
			sw.Port(1).Down()
		}
		if i == 200 {
			sw.Port(1).Up()
		}
		if err := CheckConservation(conserveLinks(sw, in), []*Switch{sw}, pool, 0); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	s.RunAll()
	if err := CheckConservation(conserveLinks(sw, in), []*Switch{sw}, pool, 0); err != nil {
		t.Fatal(err)
	}
	if sw.Buffer.Used() != 0 || pool.Gets+in.dups != pool.Puts {
		t.Fatalf("not quiescent: buffer %d B, pool gets %d + copies %d, puts %d", sw.Buffer.Used(), pool.Gets, in.dups, pool.Puts)
	}
	if in.dups == 0 || in.Stats.DropsFault == 0 || sw.Port(1).discarded == 0 || sw.TotalDrops() == 0 {
		t.Fatalf("the run lost its teeth: dups %d, fault losses %d, discarded %d, queue drops %d",
			in.dups, in.Stats.DropsFault, sw.Port(1).discarded, sw.TotalDrops())
	}
}

// TestConservationCatchesLeaks plants one defect of each kind the audit
// exists for and requires the matching identity to fail.
func TestConservationCatchesLeaks(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		plant      func(s *sim.Simulator, pool *packet.Pool, sw *Switch, in *Link)
	}{
		{"silent fault loss", "link in:", func(_ *sim.Simulator, _ *packet.Pool, _ *Switch, in *Link) {
			in.SetFault(func(*Link, *packet.Packet, func(*packet.Packet, sim.Duration)) {})
		}},
		{"buffer byte leak", "shared buffer", func(_ *sim.Simulator, _ *packet.Pool, sw *Switch, _ *Link) {
			sw.Buffer.Admit(0, 100)
		}},
		{"pooled packet dropped on the floor", "pool:", func(_ *sim.Simulator, pool *packet.Pool, _ *Switch, _ *Link) {
			pool.Get(64)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, pool, sw, in := conserveFixture()
			tc.plant(s, pool, sw, in)
			in.Send(packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2), packet.ECT0,
				packet.TCPFields{SrcPort: 1, DstPort: 80, Flags: packet.FlagACK}, 1400))
			s.RunAll()
			err := CheckConservation(conserveLinks(sw, in), []*Switch{sw}, pool, 0)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("audit = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
