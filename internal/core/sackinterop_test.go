package core

import (
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
)

// TestPACKCoexistsWithSACKOptions checks the tightest option-space case:
// an ACK already carrying the maximum 3 SACK blocks (2+24 bytes, padded to
// 28) still fits the 12-byte PACK — exactly filling the 40-byte TCP option
// space — and the guest sender still parses its SACK blocks after the peer
// vSwitch strips the PACK.
func TestPACKCoexistsWithSACKOptions(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)

	// Receiver-module state with counted bytes.
	ingress(v, dataPkt(peer, host.Addr, 200, 100, 9000, 1500))

	sack := packet.EncodeSACK(nil, []packet.SACKBlock{
		{Start: 10_000, End: 11_000},
		{Start: 12_000, End: 13_000},
		{Start: 14_000, End: 15_000},
	})
	ack := packet.Build(host.Addr, peer, packet.NotECT, packet.TCPFields{
		SrcPort: 100, DstPort: 200, Seq: 1, Ack: 10_500,
		Flags: packet.FlagACK, Window: 65535, Options: sack,
	}, 0)
	out := egress(v, ack)
	if len(out) != 1 {
		t.Fatalf("expected PACK piggyback (1 packet), got %d (FACK fallback?)", len(out))
	}
	tc := out[0].TCP()
	if tc.HeaderLen() != packet.MaxTCPHeaderLen {
		t.Fatalf("header len %d, want the full 60", tc.HeaderLen())
	}
	if packet.FindOption(tc.Options(), packet.OptPACK) == nil {
		t.Fatal("PACK missing")
	}
	blocks := packet.ParseSACK(packet.FindOption(tc.Options(), packet.OptSACK))
	if len(blocks) != 3 || blocks[0].Start != 10_000 {
		t.Fatalf("SACK blocks disturbed: %+v", blocks)
	}
	if !out[0].IP().VerifyChecksum() {
		t.Fatal("checksum broken")
	}

	// Simulate the peer's sender module stripping the PACK: SACK survives.
	if !packet.RemoveTCPOptionInPlace(out[0], packet.OptPACK) {
		t.Fatal("PACK not removed")
	}
	st := out[0].TCP()
	blocks = packet.ParseSACK(packet.FindOption(st.Options(), packet.OptSACK))
	if len(blocks) != 3 || blocks[2].End != 15_000 {
		t.Fatalf("SACK lost after PACK strip: %+v", blocks)
	}
}

// TestEndToEndSACKUnderACDC: burst loss on an AC/DC-enforced flow recovers
// via guest SACK while the vSwitch rewrites windows on the same ACKs.
func TestEndToEndSACKUnderACDC(t *testing.T) {
	guest := tcpstack.DefaultConfig()
	guest.MTU = 1500
	acdcCfg := DefaultConfig()
	acdcCfg.MTU = 1500
	b := newBench(t, 2, guest, &acdcCfg, redK(), 10e9)

	count, dropped := 0, 0
	inner := b.hosts[0].Egress
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		out, extra := inner(p)
		if p.PayloadLen() > 0 {
			count++
			if count >= 50 && dropped < 4 {
				dropped++
				return nil, nil
			}
		}
		return out, extra
	}
	var srvp = new(*tcpstack.Conn)
	b.stacks[1].Listen(5001, func(c *tcpstack.Conn) { *srvp = c })
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	cli.Send(2_000_000)
	b.s.RunFor(200 * sim.Millisecond)
	if (*srvp).Delivered != 2_000_000 {
		t.Fatalf("delivered %d", (*srvp).Delivered)
	}
	if cli.Timeouts != 0 {
		t.Fatalf("RTO under AC/DC+SACK burst loss (%d)", cli.Timeouts)
	}
	if b.acdc[0].Stats().RwndRewrites == 0 {
		t.Fatal("AC/DC idle")
	}
}

// TestTxDoneCallbacks: the NIC tx-completion and egress-free paths both fire.
func TestTxDoneCallbacks(t *testing.T) {
	s := sim.New(1)
	h := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	sink := netsim.HandlerFunc(func(*packet.Packet) {})
	h.NIC = netsim.NewLink(s, "nic", 1e9, sim.Microsecond, sink)
	var done, freed int
	h.NIC.OnTxDone = func(*packet.Packet) { done++ }
	h.OnTxFree = func(*packet.Packet) { freed++ }

	p := dataPkt(h.Addr, packet.MakeAddr(10, 0, 0, 2), 1, 2, 0, 100)
	h.Output(p.Clone())
	s.RunAll()
	if done != 1 {
		t.Fatalf("OnTxDone = %d", done)
	}
	// Dropping egress hook → OnTxFree.
	h.Egress = func(*packet.Packet) (*packet.Packet, *packet.Packet) { return nil, nil }
	h.Output(p.Clone())
	if freed != 1 {
		t.Fatalf("OnTxFree = %d", freed)
	}
}
