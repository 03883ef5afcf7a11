package tcpstack

import (
	"bytes"
	"fmt"
	"math/rand"
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
		if want == nil && cs.timeWaits.find(key) >= 0 {
			if !cli.parked || cli.tw != 0 {
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
	if ss.timeWaits != nil {
		t.Error("the server, never in TIME_WAIT, made a TIME_WAIT Deadlines")
	}
	if ss.NumConns() != 0 || cs.timeWaits.find(key) < 0 || cs.NumConns() != 1 || cs.ConnRecords() != 1 {
		t.Fatalf("after the re-ACK: server %d conns; client record %v, %d conns, %d Conn records",
			ss.NumConns(), cs.timeWaits.find(key) >= 0, cs.NumConns(), cs.ConnRecords())
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
		cs.conns.Len() != 0 {
		t.Errorf("SYN to the TIME_WAIT key: delivered +%d, dropped +%d, sent +%d, %d conns",
			cs.DeliveredSegs-delivered, cs.DroppedSegs-droppedSegs, b.hosts[0].SentPackets-sent, cs.conns.Len())
	}

	b.s.RunFor(100 * sim.Millisecond)
	if cs.NumConns() != 0 || len(cs.timeWaits.free) != twPage || b.checkParked(t) != 2 {
		t.Fatalf("after TIME_WAIT: %d conns, %d free records, %d parked", cs.NumConns(), len(cs.timeWaits.free), b.checkParked(t))
	}
}

// TestTimeWaitSizeClass keeps the TIME_WAIT record at 48 bytes, 64 of them to
// a 3 kB page: a churn keeps one per recently closed connection.
func TestTimeWaitSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(timeWait{}); n > 48 {
		t.Fatalf("timeWait is %d bytes, over 48", n)
	}
}

// TestTimeWaitTableMatchesMap is a seeded differential of the TIME_WAIT table
// against a map model. One client dials three servers, sends a little and
// closes, so each connection ends in TIME_WAIT on the client; a third of the
// final ACKs are dropped, so servers retransmit their FINs into the records,
// which re-ACK and restart the wait. More than a page of records is live at
// once, and keys share home slots. After every segment the client takes and
// every expiry, the test checks the table's shape, that every key the model
// holds is found and no other, NumConns, that allocPort skips a key in
// TIME_WAIT and hands out one whose wait ended, and that each wait ends
// exactly at the model's deadline, so in the model's order.
func TestTimeWaitTableMatchesMap(t *testing.T) {
	cfg := smallCfg()
	b := newBench(t, 4, cfg, netsim.REDConfig{}, 1e9)
	cs := b.stacks[0]
	for _, st := range b.stacks[1:] {
		st.Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	}
	rng := rand.New(rand.NewSource(36))
	dur := 4 * cfg.RTOMin
	model := map[connKey]sim.Time{}
	peak, collided, refins, expired := 0, false, 0, 0

	check := func(where string) {
		t.Helper()
		ts := cs.timeWaits
		if ts == nil {
			if len(model) != 0 || cs.NumConns() != cs.conns.Len() {
				t.Fatalf("%s: no TIME_WAIT table; model %d, NumConns %d, %d open", where, len(model), cs.NumConns(), cs.conns.Len())
			}
			return
		}
		for k, at := range model {
			i := ts.find(k)
			if i < 0 || ts.rec(uint32(i)).key != k {
				t.Fatalf("%s: key %x in TIME_WAIT until %v not found (record %d)", where, uint64(k), at, i)
			}
			if at < b.s.Now() {
				t.Fatalf("%s: key %x still in TIME_WAIT past its deadline %v", where, uint64(k), at)
			}
		}
		for k := range model {
			if cs.conns.Get(k) != nil {
				t.Fatalf("%s: TIME_WAIT key %x also an open connection", where, uint64(k))
			}
		}
		if ts.index.Len() != len(model) || cs.NumConns() != cs.conns.Len()+len(model) {
			t.Fatalf("%s: table holds %d, NumConns %d; model %d, %d open", where, ts.index.Len(), cs.NumConns(), len(model), cs.conns.Len())
		}
		checkTimeWaits(t, ts, where)
		peak = max(peak, len(model))
		homes := map[int]bool{}
		for k := range model {
			home := ts.index.Home(sim.HashWord(k))
			collided = collided || homes[home]
			homes[home] = true
		}
	}
	// allocFrom runs allocPort from port p and puts the port cursor back.
	allocFrom := func(p uint16, k connKey) uint16 {
		next := cs.nextPort
		defer func() { cs.nextPort = next }()
		cs.nextPort = p
		return cs.allocPort(k.remoteAddr(), k.remotePort())
	}

	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		tc := p.TCP()
		key := makeKey(tc.SrcPort(), p.IP().Dst(), tc.DstPort())
		finalAck := tc.Flags()&^packet.FlagECE == packet.FlagACK && p.PayloadLen() == 0 &&
			cs.conns.Get(key) != nil && cs.conns.Get(key).state == StateTimeWait
		if finalAck && rng.Intn(3) == 0 {
			return nil, nil
		}
		return p, nil
	}
	b.hosts[0].Demux = netsim.HandlerFunc(func(p *packet.Packet) {
		tc := p.TCP()
		key := makeKey(tc.DstPort(), p.IP().Src(), tc.SrcPort())
		_, inTW := model[key]
		refin := inTW && tc.HasFlags(packet.FlagFIN)
		cs.HandlePacket(p)
		switch {
		case refin:
			refins++
			model[key] = b.s.Now() + dur
		case !inTW && cs.timeWaits.find(key) >= 0:
			model[key] = b.s.Now() + dur
		}
		check("segment")
		if _, ok := model[key]; ok {
			if p := allocFrom(key.localPort(), key); p == key.localPort() {
				t.Fatalf("allocPort handed out port %d, held by TIME_WAIT key %x", p, uint64(key))
			}
		}
	})

	dial := func() {
		c := cs.Dial(b.hosts[1+rng.Intn(3)].Addr, 5001)
		key := c.key
		c.OnClosed = func() {
			if at, ok := model[key]; !ok || at != b.s.Now() {
				t.Fatalf("TIME_WAIT of %x ended at %v; model deadline %v (held %v)", uint64(key), b.s.Now(), at, ok)
			}
			delete(model, key)
			expired++
			check("expiry")
			if cs.conns.Get(key) == nil {
				if p := allocFrom(key.localPort(), key); p != key.localPort() {
					t.Fatalf("allocPort skipped port %d after its TIME_WAIT ended, got %d", key.localPort(), p)
				}
			}
		}
		c.Send(int64(1 + rng.Intn(4000)))
		c.Close()
	}
	const conns = 300
	for i := 0; i < conns; i++ {
		b.s.ScheduleFunc(sim.Duration(rng.Int63n(int64(100*sim.Millisecond))), dial)
	}
	b.s.RunFor(400 * sim.Millisecond)

	if expired != conns || len(model) != 0 || cs.NumConns() != 0 {
		t.Fatalf("%d of %d waits ended; model holds %d, NumConns %d", expired, conns, len(model), cs.NumConns())
	}
	if peak <= twPage || len(cs.timeWaits.pages) < 2 || !collided || refins == 0 {
		t.Fatalf("coverage: peak %d records in %d pages, home slots shared %v, %d FINs into records",
			peak, len(cs.timeWaits.pages), collided, refins)
	}
	if len(cs.timeWaits.free) != len(cs.timeWaits.pages)*twPage {
		t.Fatalf("%d records free of %d", len(cs.timeWaits.free), len(cs.timeWaits.pages)*twPage)
	}
}

// checkTimeWaits asserts the TIME_WAIT table's shape: the index's
// (sim.Slots.Check), and every record either indexed or free, never both and
// never twice.
func checkTimeWaits(t *testing.T, ts *twTable, where string) {
	t.Helper()
	if _, err := ts.index.Check(ts.hash); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	state := make([]byte, len(ts.pages)*twPage)
	ts.index.Range(func(o uint32) {
		if state[o-1]++; state[o-1] > 1 {
			t.Fatalf("%s: record %d indexed twice", where, o-1)
		}
	})
	for _, i := range ts.free {
		if state[i]++; state[i] > 1 {
			t.Fatalf("%s: record %d free and indexed, or free twice", where, i)
		}
	}
	if ts.index.Len()+len(ts.free) != len(state) {
		t.Fatalf("%s: %d indexed, %d free of %d records", where, ts.index.Len(), len(ts.free), len(state))
	}
}
