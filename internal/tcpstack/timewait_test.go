package tcpstack

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// TestTimeWaitRecord closes a connection from the client, so the client ends
// in TIME_WAIT, and drops its final ACK once, so the server retransmits its
// FIN into the client's TIME_WAIT record. Across SACK on/off, every ECN mode
// and the receiver's CE state set and unset, it checks that:
//   - the record's re-ACK is byte for byte the ACK the Conn itself would have
//     sent, built just after the hand-off from the parked record, whose fields
//     nothing has touched yet;
//   - a SYN to the TIME_WAIT key is counted as delivered and not accepted,
//     even with a listener on the port;
//   - allocPort skips the key, and only that key.
func TestTimeWaitRecord(t *testing.T) {
	for _, sack := range []bool{false, true} {
		for _, ecn := range []ECNMode{ECNOff, ECNRFC3168, ECNDCTCP} {
			for _, ce := range []bool{false, true} {
				t.Run(fmt.Sprintf("sack=%v/ecn=%d/ce=%v", sack, ecn, ce), func(t *testing.T) {
					testTimeWaitRecord(t, sack, ecn, ce)
				})
			}
		}
	}
}

func testTimeWaitRecord(t *testing.T, sack bool, ecn ECNMode, ce bool) {
	cfg := smallCfg()
	cfg.SACK, cfg.ECN = sack, ecn
	if ecn == ECNDCTCP {
		cfg.CC = "dctcp"
	}
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cs, ss := b.stacks[0], b.stacks[1]
	ss.Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	cli := cs.Dial(b.hosts[1].Addr, 5001)
	cli.FlowTag = 42
	cli.Send(20_000)
	b.s.RunFor(10 * sim.Millisecond)
	if cli.AckedBytes != 20_000 || cli.ecnOK != (ecn != ECNOff) || cli.sackOK != sack {
		t.Fatalf("transfer: acked %d, ecnOK %v, sackOK %v", cli.AckedBytes, cli.ecnOK, cli.sackOK)
	}
	// The receiver's CE state as data would have left it, with a DCTCP echo
	// still owed (ceAccum), which the client's FIN pays.
	cli.lastCE, cli.ceAccum, cli.eceLatch = ce, true, ce
	key := cli.key

	clone := func(p *packet.Packet) *packet.Packet {
		return &packet.Packet{Buf: bytes.Clone(p.Buf[:p.IPLen()]), FlowTag: p.FlowTag}
	}
	var want, reack *packet.Packet
	building, dropped := false, false
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		tc := p.TCP()
		pureAck := tc.Flags()&^packet.FlagECE == packet.FlagACK && p.PayloadLen() == 0
		switch {
		case building:
			want = clone(p)
			return nil, nil
		case pureAck && !dropped && cli.State() == StateTimeWait:
			dropped = true // the final ACK, still sent by the Conn
			return nil, nil
		case pureAck && dropped && reack == nil:
			reack = clone(p)
		}
		return p, nil
	}
	b.hosts[0].Demux = netsim.HandlerFunc(func(p *packet.Packet) {
		cs.HandlePacket(p)
		if want == nil && cs.timeWaits[key] != nil {
			if !cli.parked || cli.tw != nil {
				t.Fatalf("TIME_WAIT record in place but Conn not handed off: %v", cli)
			}
			// The ACK the Conn would send for a retransmitted FIN had it been
			// kept in TIME_WAIT, as it was before the hand-off.
			building = true
			cli.state = StateTimeWait
			cli.sendAck()
			cli.state = StateClosed
			building = false
		}
	})
	cli.Close()
	b.s.RunFor(25 * sim.Millisecond) // the server's RTO, RTOMin = 10 ms, resends its FIN
	if !dropped || want == nil || reack == nil {
		t.Fatalf("final ACK dropped %v, reference built %v, re-ACK seen %v", dropped, want != nil, reack != nil)
	}
	if !bytes.Equal(reack.Buf, want.Buf) || reack.FlowTag != want.FlowTag {
		t.Fatalf("re-ACK differs from the Conn's ACK:\nrecord % x (tag %d)\nConn   % x (tag %d)",
			reack.Buf, reack.FlowTag, want.Buf, want.FlowTag)
	}
	if got := want.TCP().HasFlags(packet.FlagECE); got != (ce && ecn != ECNOff) {
		t.Fatalf("re-ACK ECE = %v with ecn=%d, CE state %v", got, ecn, ce)
	}
	if ss.twExpiry != nil {
		t.Error("the server, never in TIME_WAIT, made a TIME_WAIT Deadlines")
	}
	if ss.NumConns() != 0 || cs.timeWaits[key] == nil || cs.NumConns() != 1 || cs.ConnRecords() != 1 {
		t.Fatalf("after the re-ACK: server %d conns; client record %v, %d conns, %d Conn records",
			ss.NumConns(), cs.timeWaits[key] != nil, cs.NumConns(), cs.ConnRecords())
	}

	// allocPort: the TIME_WAIT key is busy, the same port to another peer
	// port is not.
	cs.nextPort = key.localPort()
	if p := cs.allocPort(key.remoteAddr(), key.remotePort()); p == key.localPort() {
		t.Errorf("allocPort handed out port %d, held by the TIME_WAIT key", p)
	}
	cs.nextPort = key.localPort()
	if p := cs.allocPort(key.remoteAddr(), key.remotePort()+1); p != key.localPort() {
		t.Errorf("allocPort skipped port %d for a key not in TIME_WAIT, got %d", key.localPort(), p)
	}

	// A SYN to the key: delivered to the record, not accepted.
	cs.Listen(key.localPort(), func(c *Conn) { t.Errorf("SYN to a TIME_WAIT key accepted: %v", c) })
	sent, delivered, droppedSegs := b.hosts[0].SentPackets, cs.DeliveredSegs, cs.DroppedSegs
	b.inEvent(func() {
		cs.HandlePacket(packet.BuildIn(cs.Host.Pool, key.remoteAddr(), cs.Host.Addr, packet.NotECT, packet.TCPFields{
			SrcPort: key.remotePort(), DstPort: key.localPort(), Seq: 77, Flags: packet.FlagSYN, Window: 65535,
		}, 0))
	})
	if cs.DeliveredSegs != delivered+1 || cs.DroppedSegs != droppedSegs || b.hosts[0].SentPackets != sent ||
		len(cs.conns) != 0 {
		t.Errorf("SYN to the TIME_WAIT key: delivered +%d, dropped +%d, sent +%d, %d conns",
			cs.DeliveredSegs-delivered, cs.DroppedSegs-droppedSegs, b.hosts[0].SentPackets-sent, len(cs.conns))
	}

	b.s.RunFor(100 * sim.Millisecond)
	if cs.NumConns() != 0 || len(cs.twFree) != 1 || b.checkParked(t) != 2 {
		t.Fatalf("after TIME_WAIT: %d conns, %d free records, %d parked", cs.NumConns(), len(cs.twFree), b.checkParked(t))
	}
}

// TestTimeWaitSizeClass keeps the TIME_WAIT record in the 64-byte malloc
// size class: a churn keeps one per recently closed connection.
func TestTimeWaitSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(timeWait{}); n > 64 {
		t.Fatalf("timeWait is %d bytes, over the 64-byte size class", n)
	}
}
