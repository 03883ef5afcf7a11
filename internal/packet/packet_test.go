package packet

import (
	"strings"
	"testing"
	"testing/quick"
)

func testPacket(t *testing.T, opts []byte, payload int) *Packet {
	t.Helper()
	p := Build(MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2), ECT0, TCPFields{
		SrcPort: 40000, DstPort: 5001,
		Seq: 1000, Ack: 2000,
		Flags:   FlagACK,
		Window:  0x1234,
		Options: opts,
	}, payload)
	if !p.IP().Valid() || !p.TCP().Valid() {
		t.Fatal("Build produced invalid packet")
	}
	return p
}

func TestBuildRoundTrip(t *testing.T) {
	p := testPacket(t, nil, 1448)
	ip, tc := p.IP(), p.TCP()
	if ip.Src() != MakeAddr(10, 0, 0, 1) || ip.Dst() != MakeAddr(10, 0, 0, 2) {
		t.Fatalf("addresses: %v > %v", ip.Src(), ip.Dst())
	}
	if ip.Protocol() != ProtoTCP {
		t.Fatalf("protocol = %d", ip.Protocol())
	}
	if ip.ECN() != ECT0 {
		t.Fatalf("ECN = %v", ip.ECN())
	}
	if tc.SrcPort() != 40000 || tc.DstPort() != 5001 || tc.Seq() != 1000 || tc.Ack() != 2000 {
		t.Fatal("TCP fields mismatch")
	}
	if tc.Window() != 0x1234 {
		t.Fatalf("window = %#x", tc.Window())
	}
	if !tc.HasFlags(FlagACK) || tc.HasFlags(FlagSYN) {
		t.Fatalf("flags = %#x", tc.Flags())
	}
	if p.PayloadLen() != 1448 {
		t.Fatalf("payload = %d", p.PayloadLen())
	}
	if p.IPLen() != IPv4HeaderLen+TCPHeaderLen+1448 {
		t.Fatalf("IPLen = %d", p.IPLen())
	}
	if p.WireLen() != p.IPLen()+FrameOverhead {
		t.Fatalf("WireLen = %d", p.WireLen())
	}
	if !ip.VerifyChecksum() {
		t.Fatal("IP checksum invalid")
	}
	if !tc.VerifyChecksum(ip.PseudoHeaderSum(tcpLenOf(ip))) {
		t.Fatal("TCP checksum invalid")
	}
}

func TestAddrString(t *testing.T) {
	if s := MakeAddr(192, 168, 1, 200).String(); s != "192.168.1.200" {
		t.Fatalf("Addr.String() = %q", s)
	}
}

func TestSetWindowIncrementalChecksum(t *testing.T) {
	p := testPacket(t, nil, 0)
	ip := p.IP()
	ps := ip.PseudoHeaderSum(tcpLenOf(ip))
	tc := p.TCP()
	for _, w := range []uint16{0, 1, 0xffff, 42, 0x8000} {
		tc.SetWindow(w)
		if tc.Window() != w {
			t.Fatalf("window = %d, want %d", tc.Window(), w)
		}
		if !tc.VerifyChecksum(ps) {
			t.Fatalf("checksum broken after SetWindow(%d)", w)
		}
	}
}

func TestSetECNIncrementalChecksum(t *testing.T) {
	p := testPacket(t, nil, 100)
	ip := p.IP()
	for _, e := range []ECN{NotECT, ECT0, ECT1, CE} {
		ip.SetECN(e)
		if ip.ECN() != e {
			t.Fatalf("ECN = %v, want %v", ip.ECN(), e)
		}
		if !ip.VerifyChecksum() {
			t.Fatalf("IP checksum broken after SetECN(%v)", e)
		}
	}
}

func TestSetTotalLenChecksum(t *testing.T) {
	p := testPacket(t, nil, 100)
	ip := p.IP()
	ip.SetTotalLen(9000)
	if ip.TotalLen() != 9000 || !ip.VerifyChecksum() {
		t.Fatal("SetTotalLen broke header")
	}
}

func TestDecTTL(t *testing.T) {
	p := testPacket(t, nil, 0)
	ip := p.IP()
	start := ip.TTL()
	for i := 0; i < int(start)-1; i++ {
		if !ip.DecTTL() {
			t.Fatalf("DecTTL returned false at TTL=%d", ip.TTL())
		}
		if !ip.VerifyChecksum() {
			t.Fatalf("checksum broken at TTL=%d", ip.TTL())
		}
	}
	if ip.DecTTL() {
		t.Fatal("DecTTL should report expiry at zero")
	}
}

func TestECNStrings(t *testing.T) {
	for e, want := range map[ECN]string{NotECT: "Not-ECT", ECT0: "ECT(0)", ECT1: "ECT(1)", CE: "CE"} {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", e, e.String(), want)
		}
	}
}

func TestPacketString(t *testing.T) {
	p := Build(MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2), ECT0, TCPFields{
		SrcPort: 1, DstPort: 2, Flags: FlagSYN | FlagACK, Window: 100,
	}, 0)
	s := p.String()
	for _, want := range []string{"10.0.0.1:1", "10.0.0.2:2", "SA", "win=100", "ECT(0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if bad := (&Packet{Buf: []byte{1, 2}}).String(); !strings.Contains(bad, "invalid") {
		t.Errorf("invalid packet String() = %q", bad)
	}
}

func TestClone(t *testing.T) {
	p := testPacket(t, nil, 0)
	q := p.Clone()
	q.TCP().SetWindow(9999)
	if p.TCP().Window() == 9999 {
		t.Fatal("Clone shares the buffer")
	}
}

func TestValidRejectsShortBuffers(t *testing.T) {
	if IPv4([]byte{0x45}).Valid() {
		t.Fatal("1-byte IPv4 considered valid")
	}
	if TCP(make([]byte, 10)).Valid() {
		t.Fatal("10-byte TCP considered valid")
	}
	// Version 6 is not valid IPv4.
	b := make([]byte, 20)
	b[0] = 0x65
	if IPv4(b).Valid() {
		t.Fatal("version-6 header considered valid IPv4")
	}
	// Claimed IHL longer than the buffer.
	b[0] = 0x4f
	if IPv4(b).Valid() {
		t.Fatal("IHL-beyond-buffer considered valid")
	}
}

// Property: Build always produces packets whose checksums verify and whose
// fields round-trip, across arbitrary ports/seqs/windows/payload sizes.
func TestBuildProperty(t *testing.T) {
	prop := func(sp, dp, win uint16, seq, ack uint32, payload uint16, flags uint8) bool {
		p := Build(MakeAddr(10, 0, 1, 1), MakeAddr(10, 0, 2, 2), ECT0, TCPFields{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack,
			Flags: flags, Window: win,
		}, int(payload%30000))
		ip, tc := p.IP(), p.TCP()
		return ip.VerifyChecksum() &&
			tc.VerifyChecksum(ip.PseudoHeaderSum(tcpLenOf(ip))) &&
			tc.SrcPort() == sp && tc.DstPort() == dp &&
			tc.Seq() == seq && tc.Ack() == ack &&
			tc.Window() == win && tc.Flags() == flags &&
			p.PayloadLen() == int(payload%30000)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildDataPacket(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Build(MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2), ECT0, TCPFields{
			SrcPort: 40000, DstPort: 5001, Seq: uint32(i), Flags: FlagACK, Window: 65535,
		}, 8948)
	}
}

func BenchmarkParseAndRewriteWindow(b *testing.B) {
	p := Build(MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2), ECT0, TCPFields{
		SrcPort: 40000, DstPort: 5001, Flags: FlagACK, Window: 65535,
	}, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ip := p.IP()
		tc := ip.TCP()
		tc.SetWindow(uint16(i))
	}
}
