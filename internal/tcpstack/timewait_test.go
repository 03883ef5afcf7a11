package tcpstack

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
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
	if ts := cs.timeWaits; cs.NumConns() != 0 || ts.due != ts.tail || len(ts.late) != 0 || len(ts.pages) != 1 || b.checkParked(t) != 2 {
		t.Fatalf("after TIME_WAIT: %d conns, %d records in the ring, %d out of it, %d pages, %d parked",
			cs.NumConns(), ts.tail-ts.due, len(ts.late), len(ts.pages), b.checkParked(t))
	}
}

// TestTimeWaitSizeClass keeps the TIME_WAIT record at 48 bytes, 64 of them to
// a 3 kB page: a churn keeps one per recently closed connection.
func TestTimeWaitSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(timeWait{}); n > 48 {
		t.Fatalf("timeWait is %d bytes, over 48", n)
	}
}

// TestTimeWaitFootprint pins what a connection in TIME_WAIT costs its stack
// in live heap: the record, what orders its wait and its index slots. A
// client closes connections into TIME_WAIT, 100 at a time; a first batch
// runs through TIME_WAIT and 1 000 more enter it to warm the stacks' Conn
// records, packets and events, and the next 5 000 are measured. The live
// heap grows by at most 64 B per connection: the 48-byte record in its page
// and a few bytes of index. A wait with an entry of its own in a Deadlines
// heap adds 32 B and the heap's doubling more, close to 90 B in all.
func TestTimeWaitFootprint(t *testing.T) {
	cfg := smallCfg()
	cfg.RTOMin = 100 * sim.Millisecond // TIME_WAIT lasts 400 ms
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cs := b.stacks[0]
	b.stacks[1].Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	batch := func() {
		for range 100 {
			c := cs.Dial(b.hosts[1].Addr, 5001)
			c.Send(1000)
			c.Close()
		}
		b.s.RunFor(2 * sim.Millisecond)
	}
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	batch()
	b.s.RunFor(sim.Second)
	if cs.NumConns() != 0 {
		t.Fatalf("warm-up: %d connections left", cs.NumConns())
	}
	const warm, n = 1000, 5000
	for range warm / 100 {
		batch()
	}
	before := live()
	for range n / 100 {
		batch()
	}
	after := live()
	if cs.NumConns() != warm+n || cs.conns.Len() != 0 {
		t.Fatalf("%d connections in TIME_WAIT and %d open, want %d and none", cs.NumConns()-cs.conns.Len(), cs.conns.Len(), warm+n)
	}
	per := float64(int64(after-before)) / n
	t.Logf("%.1f B per connection in TIME_WAIT", per)
	if per > 64 {
		t.Errorf("a connection in TIME_WAIT costs %.1f B of live heap, over 64", per)
	}
	runtime.KeepAlive(b)
}

// TestAllocPortOutOfEphemeralPorts puts every ephemeral port to one peer
// port in TIME_WAIT, which fills the TIME_WAIT ring to 25 536 records. The
// next dial panics "out of ephemeral ports" after trying each port of the
// range once, so the port cursor is back where it started; once the waits
// have ended, the ports are handed out again from there.
func TestAllocPortOutOfEphemeralPorts(t *testing.T) {
	cfg := smallCfg()
	cfg.RTOMin = 250 * sim.Millisecond // TIME_WAIT lasts 1 s
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cs := b.stacks[0]
	b.stacks[1].Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	const ports = 1<<16 - 40000
	for dialled := 0; dialled < ports; {
		for range min(512, ports-dialled) {
			c := cs.Dial(b.hosts[1].Addr, 5001)
			c.Send(100)
			c.Close()
			dialled++
		}
		b.s.RunFor(5 * sim.Millisecond)
	}
	if ts := cs.timeWaits; cs.NumConns() != ports || cs.conns.Len() != 0 || ts.index.Len() != ports || len(ts.pages) < ports/twPage {
		t.Fatalf("%d connections, %d open, %d records in TIME_WAIT in %d pages; want all %d in TIME_WAIT",
			cs.NumConns(), cs.conns.Len(), ts.index.Len(), len(ts.pages), ports)
	}
	start := cs.nextPort
	func() {
		defer func() {
			if r := recover(); r != "tcpstack: out of ephemeral ports" {
				t.Fatalf("dial with every port in TIME_WAIT: recovered %v", r)
			}
		}()
		cs.Dial(b.hosts[1].Addr, 5001)
	}()
	if cs.nextPort != start || cs.conns.Len() != 0 {
		t.Fatalf("the failed dial moved the port cursor from %d to %d, %d connections open", start, cs.nextPort, cs.conns.Len())
	}
	b.s.RunFor(2 * sim.Second)
	if cs.NumConns() != 0 {
		t.Fatalf("%d connections left after TIME_WAIT", cs.NumConns())
	}
	if c := cs.Dial(b.hosts[1].Addr, 5001); c.LocalPort() != start {
		t.Fatalf("after TIME_WAIT the dial took port %d, want %d", c.LocalPort(), start)
	}
}

// TestTimeWaitRestartPinsNoPages keeps one wait restarting for good while
// other connections churn through TIME_WAIT. Every ACK the client sends the
// first connection from TIME_WAIT is lost, and the server's RTO, capped at
// 4 s, stays inside the 6 s wait (RTOMin = 1.5 s), so its FINs keep coming.
// Meanwhile 50 connections close into TIME_WAIT every 100 ms for 30 s. The
// restarted record leaves the ring, so the ring spans the waits armed in the
// last 6 s, not every wait armed since the restart: its pages hold at most
// the most records ever live, plus two pages.
func TestTimeWaitRestartPinsNoPages(t *testing.T) {
	cfg := smallCfg()
	cfg.RTOMin = 1500 * sim.Millisecond // TIME_WAIT lasts 6 s
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	cs := b.stacks[0]
	b.stacks[1].Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	stuck := cs.Dial(b.hosts[1].Addr, 5001)
	key, refins := stuck.key, 0
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		tc := p.TCP()
		if makeKey(tc.SrcPort(), p.IP().Dst(), tc.DstPort()) == key && tc.Flags()&^packet.FlagECE == packet.FlagACK &&
			p.PayloadLen() == 0 && (stuck.State() == StateTimeWait || cs.timeWaits.find(key) >= 0) {
			return nil, nil
		}
		return p, nil
	}
	b.hosts[0].Demux = netsim.HandlerFunc(func(p *packet.Packet) {
		tc := p.TCP()
		if makeKey(tc.DstPort(), p.IP().Src(), tc.SrcPort()) == key && tc.HasFlags(packet.FlagFIN) && cs.timeWaits.find(key) >= 0 {
			refins++
		}
		cs.HandlePacket(p)
	})
	stuck.Send(1000)
	stuck.Close()
	peak := 0
	for range 300 {
		for range 50 {
			c := cs.Dial(b.hosts[1].Addr, 5001)
			c.Send(1000)
			c.Close()
		}
		b.s.RunFor(100 * sim.Millisecond)
		peak = max(peak, cs.NumConns())
		checkTimeWaits(t, cs.timeWaits, "churn")
	}
	ts := cs.timeWaits
	if refins < 5 || ts.find(key) < 0 || ts.late[uint32(ts.find(key))] == nil {
		t.Fatalf("%d FINs into the stuck record; in TIME_WAIT %v, out of arm order %v", refins, ts.find(key) >= 0, ts.find(key) >= 0 && ts.late[uint32(ts.find(key))] != nil)
	}
	t.Logf("%d FINs into the stuck record; at most %d connections, %d pages", refins, peak, len(ts.pages))
	if len(ts.pages)*twPage > peak+2*twPage {
		t.Fatalf("%d pages (%d records) for at most %d connections", len(ts.pages), len(ts.pages)*twPage, peak)
	}
}

// TestTimeWaitTableMatchesMap is a seeded differential of the TIME_WAIT table
// against a map model and against a reference run. One client dials three
// servers, sends a little and closes, so each connection ends in TIME_WAIT on
// the client. The waits leave arm order in every way they can: a fifth of the
// connections are dialled with another RTOMin, so their waits are shorter or
// longer than the stack's; a third of the final ACKs are dropped, so servers
// retransmit their FINs into the records, which re-ACK and restart the wait;
// and half the OnClosed callbacks dial again at once, so new waits are armed
// from an expiry. The record counter starts just below 2³², so the record
// numbers and their index slots (number + 1) wrap during the run. More than a
// page of records is live at once, and keys share home slots.
//
// After every segment the client takes and every expiry, the test checks the
// table's shape, that every key the model holds is found and no other,
// NumConns, that allocPort skips a key in TIME_WAIT and hands out one whose
// wait ended, and that each wait ends exactly at the model's deadline. The
// reference run is the same run with every wait on an entry of its own in the
// stack's sim.Deadlines, armed and restarted as every TIME_WAIT was before
// waits were kept in arm order: the two must end the same waits at the same
// times, with the same Sim.Processed and Sim.Pending and the same number of
// seqs drawn, after every step.
func TestTimeWaitTableMatchesMap(t *testing.T) {
	ring := runTimeWaitDifferential(t, func(st *Stack) { st.startTimeWaitsAt(1<<32 - 100) })
	ref := runTimeWaitDifferential(t, (*Stack).putTimeWaitsOutOfOrder)
	for i := range min(len(ring), len(ref)) {
		if ring[i] != ref[i] {
			t.Fatalf("step %d: %s\nreference: %s", i, ring[i], ref[i])
		}
	}
	if len(ring) != len(ref) {
		t.Fatalf("%d steps, reference %d", len(ring), len(ref))
	}
}

// runTimeWaitDifferential runs TestTimeWaitTableMatchesMap's connections on
// a client stack prepared by setup and returns one line per step: the time,
// the key, Sim.Processed and Sim.Pending.
func runTimeWaitDifferential(t *testing.T, setup func(*Stack)) []string {
	t.Helper()
	cfg := smallCfg()
	b := newBench(t, 4, cfg, netsim.REDConfig{}, 1e9)
	cs := b.stacks[0]
	setup(cs)
	for _, st := range b.stacks[1:] {
		st.Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	}
	rng := rand.New(rand.NewSource(36))
	model := map[connKey]sim.Time{}
	durs := map[connKey]sim.Duration{}
	var trace []string
	// step logs a step; the seq it draws tells how many the run has drawn.
	step := func(what string, k connKey) {
		trace = append(trace, fmt.Sprintf("%s %x at %v: processed %d, pending %d, seq %d",
			what, uint64(k), b.s.Now(), b.s.Processed, b.s.Pending(), b.s.StampAt(0).Seq))
	}
	peak, collided, refins, expired, late, redials := 0, false, 0, 0, 0, 0
	wrapped := false

	check := func(where string) {
		t.Helper()
		ts := cs.timeWaits
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
		peak, late = max(peak, len(model)), max(late, len(ts.late))
		wrapped = wrapped || ts.tail < 1<<31
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
			model[key] = b.s.Now() + durs[key]
		case !inTW && cs.timeWaits.find(key) >= 0:
			model[key] = b.s.Now() + durs[key]
		}
		check("segment")
		step("segment", key)
		if _, ok := model[key]; ok {
			if p := allocFrom(key.localPort(), key); p == key.localPort() {
				t.Fatalf("allocPort handed out port %d, held by TIME_WAIT key %x", p, uint64(key))
			}
		}
	})

	const conns, redialsMax = 300, 150
	var dial func()
	dial = func() {
		dcfg := cfg
		switch rng.Intn(10) {
		case 0:
			dcfg.RTOMin = cfg.RTOMin / 2
		case 1:
			dcfg.RTOMin = 2 * cfg.RTOMin
		}
		c := cs.DialCfg(b.hosts[1+rng.Intn(3)].Addr, 5001, dcfg)
		key := c.key
		durs[key] = 4 * dcfg.RTOMin
		c.OnClosed = func() {
			if at, ok := model[key]; !ok || at != b.s.Now() {
				t.Fatalf("TIME_WAIT of %x ended at %v; model deadline %v (held %v)", uint64(key), b.s.Now(), at, ok)
			}
			delete(model, key)
			expired++
			check("expiry")
			step("expiry", key)
			if cs.conns.Get(key) == nil {
				if p := allocFrom(key.localPort(), key); p != key.localPort() {
					t.Fatalf("allocPort skipped port %d after its TIME_WAIT ended, got %d", key.localPort(), p)
				}
			}
			if redials < redialsMax && rng.Intn(2) == 0 {
				redials++
				dial()
			}
		}
		c.Send(int64(1 + rng.Intn(4000)))
		c.Close()
	}
	for i := 0; i < conns; i++ {
		b.s.ScheduleFunc(sim.Duration(rng.Int63n(int64(100*sim.Millisecond))), dial)
	}
	b.s.RunFor(sim.Second)

	ts := cs.timeWaits
	if expired != conns+redials || len(model) != 0 || cs.NumConns() != 0 {
		t.Fatalf("%d of %d waits ended; model holds %d, NumConns %d", expired, conns+redials, len(model), cs.NumConns())
	}
	ring := ts.dur == cfg.timeWait()
	if peak <= twPage || ring && len(ts.pages) < 2 || !collided || refins == 0 || late == 0 || redials == 0 {
		t.Fatalf("coverage: peak %d records in %d pages, home slots shared %v, %d FINs into records, up to %d out of arm order, %d redials",
			peak, len(ts.pages), collided, refins, late, redials)
	}
	if ts.due != ts.tail || len(ts.late) != 0 || b.s.Pending() != 0 {
		t.Fatalf("drained table: due %d, tail %d, %d out of arm order, %d events pending",
			ts.due, ts.tail, len(ts.late), b.s.Pending())
	}
	t.Logf("peak %d in %d pages, %d FINs into records, up to %d out of arm order, %d redials, %d steps", peak, len(ts.pages), refins, late, redials, len(trace))
	if ring && !wrapped {
		t.Fatalf("record counter did not wrap: tail %d", ts.tail)
	}
	return trace
}

// checkTimeWaits asserts the TIME_WAIT table's shape: the index's
// (sim.Slots.Check); the ring's pages cover [due, tail), due on the first;
// due is the oldest record in arm order unless it has reached tail, and the
// due entry is pending exactly then; the stamps of the records in the ring
// rise; a free slot in the ring is zero; the records out of arm order are
// late's, each with its entry pending and no stamp; and the index names every
// record in use once, and no other.
func checkTimeWaits(t *testing.T, ts *twTable, where string) {
	t.Helper()
	if _, err := ts.index.Check(ts.hash); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	span := ts.tail - ts.due
	if ts.base%twPage != 0 || ts.due-ts.base >= twPage || span != 0 && ts.tail-ts.base > uint32(len(ts.pages))*twPage {
		t.Fatalf("%s: base %d, due %d, tail %d, %d pages", where, ts.base, ts.due, ts.tail, len(ts.pages))
	}
	slot := func(i uint32) *timeWait { return &ts.pages[(i-ts.base)/twPage][i%twPage] }
	named := map[uint32]bool{}
	ts.index.Range(func(o uint32) {
		if i := o - 1; named[i] || ts.late[i] == nil && (i-ts.due >= span || slot(i).at == (sim.Stamp{})) {
			t.Fatalf("%s: index slot %d: record %d neither late nor in use in [%d, %d), or indexed twice", where, o, i, ts.due, ts.tail)
		}
		named[o-1] = true
	})
	var last sim.Stamp
	inOrder := 0
	for i := ts.due; i != ts.tail; i++ {
		tw := slot(i)
		if tw.at == (sim.Stamp{}) {
			if i == ts.due || tw.key != 0 || tw.onClosed != nil {
				t.Fatalf("%s: free slot %d at due or not zeroed", where, i)
			}
			continue
		}
		if at := tw.at; at.When < last.When || at.Seq <= last.Seq || ts.late[i] != nil || !named[i] {
			t.Fatalf("%s: record %d in arm order stamped %v after %v, also late, or not indexed", where, i, at, last)
		}
		last = tw.at
		inOrder++
	}
	for i, lw := range ts.late {
		if !lw.h.Pending() || lw.tw.at != (sim.Stamp{}) || !named[i] {
			t.Fatalf("%s: record %d out of arm order: entry pending %v, stamp %v, indexed %v", where, i, lw.h.Pending(), lw.tw.at, named[i])
		}
	}
	if inOrder+len(ts.late) != len(named) || ts.index.Len() != len(named) || ts.dueH.Pending() != (ts.due != ts.tail) {
		t.Fatalf("%s: %d records in arm order, late holds %d; %d indexed; due %d, tail %d, due entry pending %v",
			where, inOrder, len(ts.late), ts.index.Len(), ts.due, ts.tail, ts.dueH.Pending())
	}
}
