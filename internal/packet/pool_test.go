package packet

import (
	"testing"
	"unsafe"
)

// TestPacketSizeClass pins Packet to the 128-byte size class: its header
// bytes inline, so a packet is one allocation and two cache lines. A field
// that pushes it past 128 bytes lands it in the 144-byte class.
func TestPacketSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n != 128 {
		t.Fatalf("Packet is %d bytes, want 128", n)
	}
}

// TestPoolGetAllocatesOnce: a pool miss is one allocation, header included,
// so 128 B by TestPacketSizeClass, and a warm Get/Put allocates nothing. Only
// the loop's allocations count: AllocsPerRun runs it at GOMAXPROCS 1 and
// averages in whole allocations, so a stray allocation elsewhere in the test
// binary during the loop does not read as the pool's.
func TestPoolGetAllocatesOnce(t *testing.T) {
	const n = 1000
	pl := NewPool()
	held := make([]*Packet, 0, n+1) // AllocsPerRun makes one warm-up call
	miss := func() { held = append(held, pl.Get(IPv4HeaderLen+MaxTCPHeaderLen)) }
	if a := testing.AllocsPerRun(n, miss); a != 1 {
		t.Fatalf("a pool miss allocates %.0f times, want once", a)
	}
	if p := held[0]; &p.Buf[0] != &p.hdr[0] {
		t.Fatal("a new packet's header is not its inline array")
	}
	for _, p := range held {
		pl.Put(p)
	}
	if a := testing.AllocsPerRun(100, func() { pl.Put(pl.Get(IPv4HeaderLen + TCPHeaderLen)) }); a != 0 {
		t.Fatalf("warm Get/Put allocates %.1f times", a)
	}
	if pl.News != n+1 {
		t.Fatalf("News = %d, want %d", pl.News, n+1)
	}
}

// TestCloneOwnsItsHeader: a clone, plain or pooled, has its own header
// array, so writing to it leaves the source unchanged; and a packet whose
// Buf a rewrite moved to the heap gets its own array back when the pool
// hands it out again.
func TestCloneOwnsItsHeader(t *testing.T) {
	pl := NewPool()
	for name, clone := range map[string]func(*Packet) *Packet{"Clone": (*Packet).Clone, "Pool.Clone": pl.Clone} {
		p := BuildIn(pl, MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2), ECT0,
			TCPFields{SrcPort: 1, DstPort: 2, Flags: FlagACK, Window: 100}, 1000)
		p.FlowTag, p.SentAt, p.Hops = 7, 42, 3
		q := clone(p)
		if &q.Buf[0] != &q.hdr[0] {
			t.Fatalf("%s: the clone's Buf is not its own header array", name)
		}
		q.TCP().SetWindow(9999)
		if p.TCP().Window() != 100 || q.TCP().Window() != 9999 {
			t.Fatalf("%s: writing to the clone changed the source", name)
		}
		if q.FlowTag != 7 || q.SentAt != 42 || q.Hops != 3 {
			t.Fatalf("%s: clone lost bookkeeping: %d %d %d", name, q.FlowTag, q.SentAt, q.Hops)
		}
	}

	p := pl.Get(IPv4HeaderLen + TCPHeaderLen)
	p.Buf = make([]byte, len(p.Buf)) // as a fault injector's rewrite leaves it
	pl.Put(p)
	if q := pl.Get(IPv4HeaderLen + TCPHeaderLen); q != p || &q.Buf[0] != &q.hdr[0] {
		t.Fatal("a packet recycled from a heap Buf did not get its own array back")
	}
	if long := pl.Get(IPv4HeaderLen + MaxTCPHeaderLen + 1); len(long.Buf) != IPv4HeaderLen+MaxTCPHeaderLen+1 {
		t.Fatalf("Get past the inline header: len %d", len(long.Buf))
	}
}

// TestFIFO: Push and Pop keep order, Remove unlinks from the front, the
// middle and the tail, and Put refuses a packet still linked, at the tail
// too.
func TestFIFO(t *testing.T) {
	pl := NewPool()
	var f FIFO
	ps := make([]*Packet, 5)
	for i := range ps {
		ps[i] = pl.Get(IPv4HeaderLen)
		f.Push(ps[i])
	}
	f.Remove(ps[2])
	f.Remove(ps[4])
	f.Remove(ps[0])
	var got []*Packet
	for p := f.Front(); p != nil; p = p.Next() {
		got = append(got, p)
	}
	if len(got) != 2 || got[0] != ps[1] || got[1] != ps[3] {
		t.Fatalf("after removals the FIFO holds %d packets", len(got))
	}
	f.Push(ps[4])
	for _, want := range []*Packet{ps[1], ps[3]} {
		if p := f.Pop(); p != want {
			t.Fatal("Pop out of order")
		}
		pl.Put(want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Put of the linked tail did not panic")
			}
		}()
		pl.Put(ps[4])
	}()
	if f.Pop() != ps[4] || f.Front() != nil {
		t.Fatal("the FIFO did not empty")
	}
	pl.Put(ps[4])
}
