package core

// Tests for the two kinds of flow record: a record keyed toward its host never
// runs the sender module and stays on the vSwitch's shared defaults, a sender
// write gives a record its own block without changing what the record does,
// and nothing writes the shared defaults.

import (
	"testing"

	"acdc/internal/faults"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// checkSenderDefaults asserts that nothing wrote the vSwitch's shared sender
// block: it still holds buildFlow's defaults.
func checkSenderDefaults(t *testing.T, v *VSwitch) {
	t.Helper()
	mss := int32(v.Cfg.MTU - 40)
	want := senderBlock{MSS: mss, Alpha: initAlpha, CwndBytes: initCwndPkts * float64(mss), SsthreshBytes: 1 << 40}
	if !v.defaults.same(&want) {
		t.Fatalf("the shared sender block was written: %+v, want %+v", *v.defaults, want)
	}
}

// checkRecordKinds asserts that every record keyed toward the local host is
// bare and on the shared defaults, and every record keyed away from it is a
// senderFlow.
func checkRecordKinds(t *testing.T, v *VSwitch, local packet.Addr, after string) {
	t.Helper()
	for _, f := range tableFlows(v.Table) {
		toward := f.Key.Dst == local
		if toward && (f.inline || f.senderBlock != v.defaults) {
			t.Fatalf("after %s: %v is keyed toward the host but has a sender block", after, f.Key)
		}
		if !toward && !f.inline {
			t.Fatalf("after %s: %v is keyed away from the host but is not a senderFlow", after, f.Key)
		}
	}
}

// TestPeerRecordHasNoSenderBlock runs connections dialed out and dialed in
// through a vSwitch — handshake, data and PACK feedback both ways, FIN both
// ways — then a sweep, and a second round on the recycled records: every
// record keyed toward the host stays bare after every packet.
func TestPeerRecordHasNoSenderBlock(t *testing.T) {
	b := newRecycleBench(t, DefaultConfig())
	syn := packet.BuildSynOptions(1460, 7, true)
	const ack, psh = packet.FlagACK, packet.FlagPSH
	for round := 0; round < 2; round++ {
		for sp := uint16(100); sp < 108; sp++ {
			dialOut := sp%2 == 0
			step := func(what string, out bool, f packet.TCPFields, payload int) {
				if out {
					b.out(sp, f, payload)
				} else {
					b.in(sp, packet.ECT0, f, payload)
				}
				checkRecordKinds(t, b.v, b.local, what)
			}
			if dialOut {
				step("syn out", true, packet.TCPFields{Seq: 0, Flags: packet.FlagSYN, Options: syn}, 0)
				step("syn-ack in", false, packet.TCPFields{Seq: 0, Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
			} else {
				step("syn in", false, packet.TCPFields{Seq: 0, Flags: packet.FlagSYN, Options: syn}, 0)
				step("syn-ack out", true, packet.TCPFields{Seq: 0, Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
			}
			step("data out", true, packet.TCPFields{Seq: 1, Ack: 1, Flags: ack | psh}, 1000)
			step("data in", false, packet.TCPFields{Seq: 1, Ack: 1001, Flags: ack | psh,
				Options: feedbackOpt(packet.OptPACK, 1000, 0)}, 800)
			step("ack out", true, packet.TCPFields{Seq: 1001, Ack: 801, Flags: ack}, 0)
			step("fin out", true, packet.TCPFields{Seq: 1001, Ack: 801, Flags: ack | packet.FlagFIN}, 0)
			step("fin in", false, packet.TCPFields{Seq: 801, Ack: 1002, Flags: ack | packet.FlagFIN}, 0)
			step("last ack out", true, packet.TCPFields{Seq: 1002, Ack: 802, Flags: ack}, 0)
		}
		if b.v.Table.Len() != 16 {
			t.Fatalf("round %d: %d records for 8 connections", round, b.v.Table.Len())
		}
		b.sweep()
		if b.v.Table.Len() != 0 || len(b.v.parked[0].recs) != 8 || len(b.v.parked[1].recs) != 8 {
			t.Fatalf("round %d: the sweep left %d records and parked %d bare, %d senderFlows",
				round, b.v.Table.Len(), len(b.v.parked[0].recs), len(b.v.parked[1].recs))
		}
	}
	checkSenderDefaults(t, b.v)
}

// twin plays the same calls on two vSwitches: lazy, where a record gets its
// own sender block at its first sender write, and eager, where every record
// is given one at the end of the call that made it. After every call each
// record of lazy must serialize exactly as its twin of eager.
type twin struct {
	t           *testing.T
	lazy, eager *recycleBench
	upgraded    int // lazy's records that left the shared defaults
}

func newTwin(t *testing.T, cfg Config) *twin {
	return &twin{t: t, lazy: newRecycleBench(t, cfg), eager: newRecycleBench(t, cfg)}
}

func (w *twin) step(what string, call func(b *recycleBench)) {
	w.t.Helper()
	shared := map[FlowKey]bool{}
	for _, f := range tableFlows(w.lazy.v.Table) {
		shared[f.Key] = f.senderBlock == w.lazy.v.defaults
	}
	call(w.lazy)
	call(w.eager)
	for _, f := range tableFlows(w.eager.v.Table) {
		w.eager.v.ownSender(f)
	}
	if a, b := w.lazy.v.Table.Len(), w.eager.v.Table.Len(); a != b {
		w.t.Fatalf("after %s: %d records lazily, %d eagerly", what, a, b)
	}
	for _, f := range tableFlows(w.lazy.v.Table) {
		g := w.eager.v.Table.Get(f.Key)
		if g == nil || f.record() != g.record() {
			w.t.Fatalf("after %s: %v serializes as\n%+v lazily,\n%+v eagerly", what, f.Key, f.record(), g)
		}
		if shared[f.Key] && f.senderBlock != w.lazy.v.defaults {
			w.upgraded++
		}
	}
	checkSenderDefaults(w.t, w.lazy.v)
}

// TestSenderBlockOnFirstSenderWrite covers the bare records that the sender
// module does reach: a hairpin connection picked up mid-stream, a segment
// sent with the peer's source address, a restored record whose sender state
// is not the defaults, and UDP tunnel datagrams on a TCP record's ports. Each
// is compared with a twin that has had a block since its first call.
func TestSenderBlockOnFirstSenderWrite(t *testing.T) {
	const ack, psh = packet.FlagACK, packet.FlagPSH
	t.Run("hairpin", func(t *testing.T) {
		w := newTwin(t, DefaultConfig())
		// The host talks to itself; a restart lost the segments before this
		// one, whose egress half it missed too.
		hair := func(out, in bool, sp, dp uint16, f packet.TCPFields, payload int) func(b *recycleBench) {
			return func(b *recycleBench) {
				f.SrcPort, f.DstPort, f.Window = sp, dp, 65535
				if out {
					b.v.egressHook(packet.Build(b.local, b.local, packet.NotECT, f, payload))
				}
				if in {
					b.v.ingressHook(packet.Build(b.local, b.local, packet.ECT0, f, payload))
				}
			}
		}
		w.step("ingress-only data", hair(false, true, 1000, 5001, packet.TCPFields{Seq: 7000, Ack: 300, Flags: ack | psh}, 1000))
		// A handshake segment seen at ingress only: its reverse record, the
		// bare one just made, learns the window scale and the MSS.
		w.step("ingress-only syn-ack", hair(false, true, 5001, 1000, packet.TCPFields{Seq: 299, Ack: 7000,
			Flags: packet.FlagSYN | ack, Options: packet.BuildSynOptions(1200, 5, true)}, 0))
		for i := uint32(0); i < 4; i++ {
			w.step("data", hair(true, true, 1000, 5001, packet.TCPFields{Seq: 8000 + 1000*i, Ack: 300, Flags: ack | psh}, 1000))
			w.step("pack", hair(true, true, 5001, 1000, packet.TCPFields{Seq: 300, Ack: 9000 + 1000*i, Flags: ack,
				Options: feedbackOpt(packet.OptPACK, 1000*(i+1), 500*i)}, 0))
		}
		w.step("fin", hair(true, true, 1000, 5001, packet.TCPFields{Seq: 12000, Ack: 300, Flags: ack | packet.FlagFIN}, 0))
		w.step("fin back", hair(true, true, 5001, 1000, packet.TCPFields{Seq: 300, Ack: 12001, Flags: ack | packet.FlagFIN}, 0))
		if w.upgraded == 0 {
			t.Fatal("no record left the shared defaults: the test compares nothing")
		}
	})
	t.Run("foreign-source egress", func(t *testing.T) {
		w := newTwin(t, DefaultConfig())
		syn := packet.BuildSynOptions(1460, 7, true)
		w.step("syn in", func(b *recycleBench) {
			b.in(100, packet.NotECT, packet.TCPFields{Flags: packet.FlagSYN, Options: syn}, 0)
		})
		w.step("syn-ack out", func(b *recycleBench) {
			b.out(100, packet.TCPFields{Ack: 1, Flags: packet.FlagSYN | ack, Options: syn}, 0)
		})
		for i := uint32(0); i < 4; i++ {
			w.step("data in", func(b *recycleBench) {
				b.in(100, packet.CE, packet.TCPFields{Seq: 1 + 1000*i, Ack: 1, Flags: ack | psh}, 1000)
			})
			// A segment of the peer's direction leaves this host: it carries
			// the peer's source address.
			w.step("foreign data out", func(b *recycleBench) {
				b.v.egressHook(packet.Build(b.peer, b.local, packet.NotECT, packet.TCPFields{SrcPort: 5001, DstPort: 100,
					Seq: 5001 + 1000*i, Ack: 1, Flags: ack | psh, Window: 65535}, 1000))
			})
			w.step("ack out", func(b *recycleBench) {
				b.out(100, packet.TCPFields{Seq: 1, Ack: 1001 + 1000*i, Flags: ack}, 0)
			})
			w.step("foreign ack in", func(b *recycleBench) {
				b.v.ingressHook(packet.Build(b.local, b.peer, packet.ECT0, packet.TCPFields{SrcPort: 100, DstPort: 5001,
					Seq: 1, Ack: 6001 + 1000*i, Flags: ack, Window: 65535, Options: feedbackOpt(packet.OptPACK, 1000*(i+1), 0)}, 0))
			})
		}
		w.step("advance", func(b *recycleBench) { b.s.RunFor(3 * vTimeout) })
		if w.upgraded == 0 {
			t.Fatal("no record left the shared defaults: the test compares nothing")
		}
	})
	t.Run("tunnel", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.UDPTunnel = true
		w := newTwin(t, cfg)
		// TCP segments arriving make bare records on both directions' keys;
		// tunnel datagrams on the same ports then reach them, one inbound and
		// one sent with this host's address.
		w.step("tcp in", func(b *recycleBench) { b.in(100, packet.NotECT, packet.TCPFields{Seq: 1, Flags: psh}, 500) })
		w.step("tcp in, own source", func(b *recycleBench) {
			b.v.ingressHook(packet.Build(b.local, b.peer, packet.NotECT, packet.TCPFields{SrcPort: 100, DstPort: 5001,
				Seq: 1, Flags: psh, Window: 65535}, 500))
		})
		for i := 0; i < 3; i++ {
			w.step("udp in", func(b *recycleBench) {
				b.v.ingressHook(packet.BuildUDPIn(nil, b.peer, b.local, packet.CE, 5001, 100, 8000))
			})
			w.step("udp out", func(b *recycleBench) {
				b.v.egressHook(packet.BuildUDPIn(nil, b.local, b.peer, packet.NotECT, 100, 5001, 8000))
			})
		}
		if w.upgraded < 2 {
			t.Fatalf("%d records left the shared defaults, want both", w.upgraded)
		}
	})
	t.Run("restore", func(t *testing.T) {
		// The snapshot holds a peer record whose sender state moved (a
		// foreign-source egress wrote it) and one that did not.
		src := newRecycleBench(t, DefaultConfig())
		src.in(100, packet.NotECT, packet.TCPFields{Seq: 1, Flags: psh}, 1000)
		src.in(101, packet.NotECT, packet.TCPFields{Seq: 1, Flags: psh}, 1000)
		src.v.egressHook(packet.Build(src.peer, src.local, packet.NotECT, packet.TCPFields{SrcPort: 5001, DstPort: 100,
			Seq: 9, Ack: 1, Flags: ack | psh, Window: 65535}, 500))
		snap := src.v.SaveSnapshot()

		w := newTwin(t, DefaultConfig())
		w.step("restore", func(b *recycleBench) {
			if err := b.v.RestoreSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		})
		moved, kept := w.lazy.v.Table.Get(w.lazy.key(100).Reverse()), w.lazy.v.Table.Get(w.lazy.key(101).Reverse())
		if moved.senderBlock == w.lazy.v.defaults || kept.senderBlock != w.lazy.v.defaults {
			t.Fatal("restore gave a block to the wrong record")
		}
		for i := uint32(0); i < 3; i++ {
			w.step("data in", func(b *recycleBench) {
				b.in(101, packet.NotECT, packet.TCPFields{Seq: 1001 + 1000*i, Flags: psh}, 1000)
			})
			w.step("foreign data out", func(b *recycleBench) {
				b.v.egressHook(packet.Build(b.peer, b.local, packet.NotECT, packet.TCPFields{SrcPort: 5001, DstPort: 101,
					Seq: 77 + 1000*i, Ack: 1, Flags: ack | psh, Window: 65535}, 1000))
			})
		}
		if w.upgraded == 0 {
			t.Fatal("no record left the shared defaults after the restore: the test compares nothing")
		}
	})
}

// TestSenderDefaultsSurviveChaos runs CUBIC guests both ways between three
// AC/DC hosts under the chaos fault profile on every uplink (loss, reordering,
// duplication, corruption, lost feedback) with a warm restart in the middle:
// afterwards every vSwitch's shared sender block still holds the defaults.
func TestSenderDefaultsSurviveChaos(t *testing.T) {
	acdcCfg := DefaultConfig()
	acdcCfg.GenDupAcks = true
	b := newBench(t, 3, cubicGuest(), &acdcCfg, redK(), 10e9)
	prof, ok := faults.Lookup("chaos")
	if !ok {
		t.Fatal("no chaos profile")
	}
	for i, h := range b.hosts {
		faults.NewInjector(prof, int64(7+i)).Attach(h.NIC)
	}
	for from := range b.hosts {
		for to := range b.hosts {
			if from != to {
				b.longFlow(t, from, to)
			}
		}
	}
	b.s.RunFor(15 * sim.Millisecond)
	b.acdc[1].Restart(b.acdc[1].SaveSnapshot())
	b.s.RunFor(15 * sim.Millisecond)
	for _, v := range b.acdc {
		checkSenderDefaults(t, v)
		if v.Table.Len() == 0 {
			t.Fatal("a vSwitch tracks no flow: the chaos never reached it")
		}
	}
}
