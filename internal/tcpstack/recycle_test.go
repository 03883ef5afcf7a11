package tcpstack

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// churn is a closed-loop connection-churn driver: every client opens a
// connection to a random other host, sends one message, closes, and opens the
// next. Even clients close both ends from a fresh event once the message has
// arrived (the shape of the benchmark's mice-churn workload); odd clients
// queue the FIN behind the data, the server closes in response, and the next
// request is dialed from inside the client's OnClosed.
type churn struct {
	b         *bench
	rng       *rand.Rand
	want      map[connKey]func(srv *Conn)
	opened    int
	delivered int64
	retrans   int64 // client RetransSegs, summed as each connection closes
	stopped   bool
}

func newChurn(t *testing.T) *churn {
	cfg := smallCfg()
	cfg.RTOMin = 2 * sim.Millisecond // TIME_WAIT = 8 ms: many generations per run
	ch := &churn{
		b:    newBench(t, 4, cfg, netsim.REDConfig{}, 10e9),
		rng:  rand.New(rand.NewSource(11)),
		want: make(map[connKey]func(*Conn)),
	}
	for i, st := range ch.b.stacks {
		st.Listen(5001, func(c *Conn) {
			attach := ch.want[c.key]
			delete(ch.want, c.key)
			attach(c)
		})
		// Every 61st data segment a host sends is lost, so recycled records
		// have been through SACK recovery and the occasional RTO.
		n := i
		ch.b.hosts[i].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
			if p.PayloadLen() > 0 {
				if n++; n%61 == 0 {
					return nil, nil
				}
			}
			return p, nil
		}
	}
	return ch
}

func (ch *churn) request(cli int) {
	if ch.stopped {
		return
	}
	from := cli % len(ch.b.stacks)
	to := ch.rng.Intn(len(ch.b.stacks) - 1)
	if to >= from {
		to++
	}
	size := int64(1 + ch.rng.Intn(30_000))
	c := ch.b.stacks[from].Dial(ch.b.hosts[to].Addr, 5001)
	ch.opened++
	srvKey := makeKey(5001, ch.b.hosts[from].Addr, c.LocalPort())
	if cli%2 == 0 {
		ch.want[srvKey] = func(srv *Conn) {
			// Close from a fresh event once the client has seen everything
			// acknowledged: a FIN behind a retransmission still in flight can
			// arrive twice, and what TIME_WAIT does with the second one is
			// not what this run is about.
			var closeBoth func()
			closeBoth = func() {
				if c.BytesQueued() > 0 {
					ch.b.s.Schedule(20*sim.Microsecond, closeBoth)
					return
				}
				ch.retrans += c.RetransSegs
				c.Close()
				srv.Close()
				ch.request(cli)
			}
			srv.OnRecv = func(n int) {
				ch.delivered += int64(n)
				if srv.Delivered == size {
					ch.b.s.Schedule(0, closeBoth)
				}
			}
		}
		c.Send(size)
		return
	}
	ch.want[srvKey] = func(srv *Conn) {
		srv.OnRecv = func(n int) { ch.delivered += int64(n) }
		srv.OnPeerClose = srv.Close
	}
	c.OnPeerClose = func() { ch.retrans += c.RetransSegs }
	c.OnClosed = func() { ch.request(cli) }
	c.Send(size)
	c.Close()
}

// TestChurnPinsParentCommit pins a lossy 64-client churn run to the event
// count, delivered bytes and connection count measured on the commit before
// Conn recycling existed: a recycler that adds, drops or reorders an event,
// a timer arm or an RNG draw — or hands out a record with state left over
// from its previous life — changes at least one of them. All four are the
// commit that consumes a FIN held behind a hole once the hole fills.
func TestChurnPinsParentCommit(t *testing.T) {
	ch := newChurn(t)
	for cli := 0; cli < 64; cli++ {
		ch.request(cli)
	}
	ch.b.s.RunFor(100 * sim.Millisecond)
	ch.stopped = true
	ch.b.s.RunFor(100 * sim.Millisecond)
	const (
		wantProcessed = 621418
		wantDelivered = 102846179
		wantOpened    = 6888
		wantRetrans   = 863
	)
	if ch.b.s.Processed != wantProcessed || ch.delivered != wantDelivered ||
		ch.opened != wantOpened || ch.retrans != wantRetrans {
		t.Fatalf("churn run: processed=%d delivered=%d opened=%d retrans=%d, parent commit gave %d/%d/%d/%d",
			ch.b.s.Processed, ch.delivered, ch.opened, ch.retrans,
			wantProcessed, wantDelivered, wantOpened, wantRetrans)
	}
	for i, st := range ch.b.stacks {
		if st.NumConns() != 0 {
			t.Fatalf("stack %d: %d connections left after the drain", i, st.NumConns())
		}
	}
}

// inEvent runs fn inside a simulator event of its own. A record parked by the
// last event that ran is not reusable until another one has started.
func (b *bench) inEvent(fn func()) {
	b.s.Schedule(0, fn)
	b.s.RunFor(0)
}

// checkParked asserts that every record on the stacks' free lists is closed,
// is off the demux table, holds no TIME_WAIT record and has none of its three
// timers armed — a stray arm would fire on the record's next connection, and a
// Conn handed to a TIME_WAIT record must have left every timer behind — and
// returns how many there are.
func (b *bench) checkParked(t *testing.T) int {
	t.Helper()
	n := 0
	for i, st := range b.stacks {
		for _, c := range st.parked {
			n++
			if !c.parked || c.state != StateClosed || st.conns.Get(c.key) == c || c.tw != 0 {
				t.Errorf("stack %d: parked %v: parked=%v, in demux table=%v, TIME_WAIT record=%v",
					i, c, c.parked, st.conns.Get(c.key) == c, c.tw != 0)
			}
			for name, tm := range map[string]*sim.Timer{"rto": c.rtoTimer, "delack": c.delackTimer,
				"persist": c.persistTimer} {
				if tm.Pending() {
					t.Errorf("stack %d: parked %v has its %s timer armed", i, c, name)
				}
			}
		}
	}
	return n
}

// field returns a readable view of a struct field, exported or not.
func field(v reflect.Value, i int) reflect.Value {
	f := v.Field(i)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// diffConns reports every field in which got differs from want. The stack
// differs by construction, timers are compared by being idle (identity and the
// stale deadline of a stopped timer mean nothing), and slices by content, not
// capacity; everything else, the algorithm and its private state included,
// must be deeply equal.
func diffConns(t *testing.T, got, want *Conn) {
	t.Helper()
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for i := 0; i < gv.NumField(); i++ {
		name := gv.Type().Field(i).Name
		g, w := field(gv, i), field(wv, i)
		if name == "stack" {
			continue
		}
		if tm, ok := g.Interface().(*sim.Timer); ok {
			if tm == nil || tm.Pending() || w.Interface().(*sim.Timer).Pending() {
				t.Errorf("%s: timer missing or armed", name)
			}
			continue
		}
		if g.Kind() == reflect.Slice && g.Len() == 0 && w.Len() == 0 {
			continue
		}
		if !reflect.DeepEqual(g.Interface(), w.Interface()) {
			t.Errorf("%s: recycled %+v, fresh %+v", name, g.Interface(), w.Interface())
		}
	}
}

// TestRecycledConnEqualsFresh drives a connection through fast recovery, an
// RTO and a full close, so that both ends' records are as dirty as they get,
// and checks that newConn on each hands out the same thing it builds from
// nothing.
func TestRecycledConnEqualsFresh(t *testing.T) {
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	const total = 300_000
	count, dropNext := 0, 0
	b.hosts[0].Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
		if p.PayloadLen() > 0 {
			// Two mid-stream segments (SACK recovery); later, a whole
			// two-segment message (no dupacks: RTO).
			if count++; count == 20 || count == 60 || dropNext > 0 {
				dropNext--
				return nil, nil
			}
		}
		return p, nil
	}
	called := 0
	dirty := func(c *Conn) {
		c.OnRecv = func(int) { called++ }
		c.OnEstablished = func() { called++ }
		c.OnPeerClose = func() { called++ }
		c.OnClosed = func() { called++ }
		c.OnRTTSample = func(int64) { called++ }
		c.FlowTag = 99
	}
	var srv *Conn
	b.stacks[1].Listen(5001, func(c *Conn) { srv = c; dirty(c) })
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	dirty(cli)
	cli.Send(total - 2000)
	b.s.RunFor(100 * sim.Millisecond)
	dropNext = 2
	cli.Send(2000)
	b.s.RunFor(500 * sim.Millisecond)
	if srv.Delivered != total || cli.FastRecoveries == 0 || cli.Timeouts == 0 || cli.RetransSegs == 0 ||
		cap(cli.sacked) == 0 || cap(srv.ooo) == 0 || called == 0 {
		t.Fatalf("connection not dirty enough: delivered=%d fr=%d rto=%d retrans=%d cap(sacked)=%d cap(ooo)=%d callbacks=%d",
			srv.Delivered, cli.FastRecoveries, cli.Timeouts, cli.RetransSegs, cap(cli.sacked), cap(srv.ooo), called)
	}
	cli.Close()
	srv.Close()
	b.s.RunFor(500 * sim.Millisecond)
	if b.checkParked(t) != 2 {
		t.Fatalf("want both ends parked, have %d and %d", len(b.stacks[0].parked), len(b.stacks[1].parked))
	}
	// What the run happened to leave clean, and what only a parked record has.
	for _, c := range []*Conn{cli, srv} {
		c.inRecovery, c.inCWR, c.sendCWR, c.retransSinceProbe = true, true, true, true
		c.backoff, c.dupAcks, c.delAcked, c.probeEnd = 3, 2, 1, 77
		c.sacked = append(c.sacked[:0], seqRange{5, 9})
		c.ooo = append(c.ooo[:0], seqRange{5, 9})
		c.lastOOO = seqRange{5, 9}
	}

	empty := NewStack(b.s, netsim.NewHost(b.s, "fresh", packet.MakeAddr(10, 0, 9, 9)), cfg)
	for i, old := range []*Conn{cli, srv} {
		key := makeKey(uint16(1000+i), packet.MakeAddr(10, 0, 0, 77), 5001)
		b.inEvent(func() {
			got := newConn(b.stacks[i], key, cfg, i == 1)
			if got != old {
				t.Fatalf("stack %d: newConn did not take the parked record back", i)
			}
			want := newConn(empty, key, cfg, i == 1)
			want.iss = got.iss
			diffConns(t, got, want)
		})
	}
	if called == 0 {
		t.Fatal("callbacks never ran")
	}
}

// TestOnClosedDialsFreshRecord: a connection that enters TIME_WAIT gives its
// Conn back in that event, so a dial later in the same event — the frames
// that handled the segment may still hold the record — must get another one.
// OnClosed runs when TIME_WAIT ends, events later, so a dial there may get
// the closed record back, and it starts clean.
func TestOnClosedDialsFreshRecord(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var srvs []*Conn
	b.stacks[1].Listen(5001, func(c *Conn) {
		srvs = append(srvs, c)
		c.OnPeerClose = c.Close
	})
	cs := b.stacks[0]
	cli := cs.Dial(b.hosts[1].Addr, 5001)
	// The client host's demux dials right after the stack has handled the
	// segment that moved cli into TIME_WAIT: inside the event that parked it.
	var inEntry *Conn
	b.hosts[0].Demux = netsim.HandlerFunc(func(p *packet.Packet) {
		cs.HandlePacket(p)
		if inEntry == nil && cs.timeWaits.find(cli.key) >= 0 {
			if !cli.parked {
				t.Fatalf("cli in TIME_WAIT but its Conn not parked: %v", cli)
			}
			inEntry = cs.Dial(b.hosts[1].Addr, 5001)
		}
	})
	var next *Conn
	cli.OnClosed = func() {
		next = cs.Dial(b.hosts[1].Addr, 5001)
		next.Send(5000)
	}
	cli.Send(1000)
	cli.Close()
	b.s.RunFor(500 * sim.Millisecond)
	if inEntry == nil || inEntry == cli {
		t.Fatalf("dial in the event cli entered TIME_WAIT returned %p, cli's record %p", inEntry, cli)
	}
	if next != cli {
		t.Errorf("dial in OnClosed, events after cli was parked, got %p, not cli's record %p", next, cli)
	}
	if next.OnClosed != nil {
		t.Errorf("recycled record kept the previous connection's OnClosed")
	}
	if len(srvs) != 3 || srvs[2].Delivered != 5000 || next.State() != StateEstablished ||
		inEntry.State() != StateEstablished {
		t.Fatalf("later connections: %d accepted, states %v and %v", len(srvs), inEntry.State(), next.State())
	}
	if srvs[1] != srvs[0] {
		t.Errorf("server stack did not reuse the record of the first connection for the second")
	}

	// Nor is a torn-down record handed out later in the event it was parked
	// in: the frames teardown returned into may still be using it.
	st := b.stacks[1]
	var dead *Conn
	b.inEvent(func() {
		dead = newConn(st, makeKey(7, b.hosts[0].Addr, 7), st.Cfg, false)
		dead.Close() // never opened: torn down and parked on the spot
		if len(st.parked) != 1 || st.parked[0] != dead {
			t.Fatalf("closed record not parked: %d on the list", len(st.parked))
		}
		if st.Dial(b.hosts[0].Addr, 5001) == dead {
			t.Errorf("record reused inside the event it was parked in")
		}
	})
	b.inEvent(func() {
		if st.Dial(b.hosts[0].Addr, 5001) != dead {
			t.Errorf("record still not reused one event later")
		}
	})
}

// TestRecycledRecordTakesConfiguredCC: the algorithm and its private state
// are kept only when the new connection asks for the same algorithm.
func TestRecycledRecordTakesConfiguredCC(t *testing.T) {
	cfg := smallCfg()
	b := newBench(t, 2, cfg, netsim.REDConfig{}, 1e9)
	b.stacks[1].Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	dctcp := cfg
	dctcp.CC, dctcp.ECN = "dctcp", ECNDCTCP
	type alphaer interface{ Alpha(*ccCtx) float64 }

	var rec *Conn
	var prevAlg any
	for i, step := range []struct {
		cfg     Config
		keepAlg bool
	}{{cfg, false}, {dctcp, false}, {dctcp, true}, {cfg, false}} {
		var c *Conn
		b.inEvent(func() { c = b.stacks[0].DialCfg(b.hosts[1].Addr, 5001, step.cfg) })
		if i == 0 {
			rec = c
		}
		if c != rec {
			t.Fatalf("step %d: record not recycled", i)
		}
		if got := c.Algorithm().Name(); got != step.cfg.CC {
			t.Fatalf("step %d: algorithm %q, configured %q", i, got, step.cfg.CC)
		}
		if a, ok := c.Algorithm().(alphaer); ok {
			if got := a.Alpha(&c.ctx); got != 1 {
				t.Fatalf("step %d: recycled DCTCP starts at alpha %v, want 1", i, got)
			}
		}
		if kept := c.Algorithm() == prevAlg; kept != step.keepAlg {
			t.Fatalf("step %d: algorithm value kept = %v, want %v", i, kept, step.keepAlg)
		}
		prevAlg = c.Algorithm()
		c.Send(200_000)
		b.s.RunFor(20 * sim.Millisecond)
		if c.AckedBytes != 200_000 {
			t.Fatalf("step %d: acked %d", i, c.AckedBytes)
		}
		c.Close()
		b.s.RunFor(500 * sim.Millisecond)
		if b.stacks[0].NumConns() != 0 {
			t.Fatalf("step %d: connection did not close", i)
		}
	}
}

// TestTeardownIsNotRepeatable: Close on a closed connection stays a no-op,
// and a second teardown — which would put the record on the free list twice
// and hand it to two connections — panics.
func TestTeardownIsNotRepeatable(t *testing.T) {
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	b.stacks[1].Listen(5001, func(c *Conn) { c.OnPeerClose = c.Close })
	cli := b.stacks[0].Dial(b.hosts[1].Addr, 5001)
	closed := 0
	cli.OnClosed = func() { closed++ }
	cli.Close()
	b.s.RunFor(500 * sim.Millisecond)
	if closed != 1 || b.checkParked(t) != 2 {
		t.Fatalf("OnClosed ran %d times, %d records parked", closed, b.checkParked(t))
	}
	cli.Close()
	if closed != 1 || len(b.stacks[0].parked) != 1 {
		t.Fatalf("Close after close: OnClosed ran %d times, %d records parked", closed, len(b.stacks[0].parked))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("second teardown did not panic")
		}
		if closed != 1 || len(b.stacks[0].parked) != 1 {
			t.Fatalf("second teardown: OnClosed ran %d times, %d records parked", closed, len(b.stacks[0].parked))
		}
	}()
	cli.teardown()
}

// TestConnSizeClass keeps Conn inside the 704-byte malloc size class: the
// next one is 768, and a free list of them is live heap.
func TestConnSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Conn{}); n > 704 {
		t.Fatalf("Conn is %d bytes, over the 704-byte size class", n)
	}
}

// TestDemuxZeroAlloc pins the demux index on the per-packet path. With a
// hundred connections open, a warm stack finds the one a segment belongs to
// (HandlePacket: a pure ACK from the peer) and the one a transmit completion
// credits (txFree), and drops a segment for no connection, without
// allocating.
func TestDemuxZeroAlloc(t *testing.T) {
	const n = 100
	b := newBench(t, 2, smallCfg(), netsim.REDConfig{}, 1e9)
	var srvs []*Conn
	b.stacks[1].Listen(5001, func(c *Conn) { srvs = append(srvs, c) })
	cs, local, peer := b.stacks[0], b.hosts[0].Addr, b.hosts[1].Addr
	clis := make(map[connKey]*Conn, n)
	for range n {
		c := cs.Dial(peer, 5001)
		clis[c.key] = c
	}
	b.s.RunFor(10 * sim.Millisecond)
	if len(srvs) != n || cs.conns.Len() != n {
		t.Fatalf("%d accepted, %d open; want %d", len(srvs), cs.conns.Len(), n)
	}
	acks, sent := make([]*packet.Packet, n), make([]*packet.Packet, n)
	for i, srv := range srvs {
		cli := clis[makeKey(srv.key.remotePort(), peer, 5001)]
		if cli == nil || cli.state != StateEstablished {
			t.Fatalf("server %v has no established client", srv)
		}
		acks[i] = packet.Build(peer, local, packet.NotECT, srv.ackFields(), 0)
		sent[i] = packet.Build(local, peer, packet.NotECT, cli.ackFields(), 0)
	}
	stray := packet.Build(peer, local, packet.NotECT, packet.TCPFields{SrcPort: 5001, DstPort: 9, Flags: packet.FlagACK}, 0)
	i := 0
	round := func() {
		cs.HandlePacket(acks[i])
		cs.Host.OnTxFree(sent[i])
		cs.HandlePacket(stray)
		i = (i + 1) % n
	}
	for range 2 * n {
		round()
	}
	delivered, dropped := cs.DeliveredSegs, cs.DroppedSegs
	const runs = 1000
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("demux round: %v allocs, want 0", allocs)
	}
	// AllocsPerRun calls round once more than it measures.
	if cs.DeliveredSegs-delivered != runs+1 || cs.DroppedSegs-dropped != runs+1 {
		t.Errorf("%d segments delivered, %d dropped; want %d each", cs.DeliveredSegs-delivered, cs.DroppedSegs-dropped, runs+1)
	}
	for _, c := range clis {
		if c.state != StateEstablished || cs.conns.Get(c.key) != c {
			t.Fatalf("client %v: state %v, in the demux index %v", c, c.state, cs.conns.Get(c.key) == c)
		}
	}
}
