package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestBuildAndParseSynOptions(t *testing.T) {
	opts := BuildSynOptions(8960, 9, true)
	so := ParseSynOptions(opts)
	if so.MSS != 8960 || !so.WScaleOK || so.WScale != 9 || !so.SACKPerm {
		t.Fatalf("round trip: %+v", so)
	}
	if so.GuestECN {
		t.Fatal("GuestECN set without option")
	}
}

func TestParseSynOptionsNoSack(t *testing.T) {
	so := ParseSynOptions(BuildSynOptions(1460, 7, false))
	if so.SACKPerm {
		t.Fatal("SACKPerm set")
	}
	if so.MSS != 1460 || so.WScale != 7 {
		t.Fatalf("got %+v", so)
	}
}

func TestParseOptionsMalformed(t *testing.T) {
	// Truncated length, zero length, length beyond buffer — parser must not
	// panic and must ignore the garbage.
	cases := [][]byte{
		{OptMSS},                        // kind with no length
		{OptMSS, 0},                     // zero length
		{OptMSS, 60, 1, 2},              // length beyond buffer
		{OptNOP, OptNOP, 42},            // unknown kind, truncated
		{OptEOL, OptMSS, 4, 0x12, 0x34}, // EOL terminates parsing
	}
	for i, c := range cases {
		got := ParseOptions(c, nil)
		if i == 4 && len(got) != 0 {
			t.Errorf("case %d: EOL did not terminate: %v", i, got)
		}
	}
	if FindOption([]byte{OptMSS, 60, 1}, OptMSS) != nil {
		t.Fatal("FindOption returned data from malformed option")
	}
}

func TestFindOption(t *testing.T) {
	opts := BuildSynOptions(1460, 7, true)
	if d := FindOption(opts, OptMSS); len(d) != 2 || d[0] != 0x05 || d[1] != 0xb4 {
		t.Fatalf("MSS data = %v", d)
	}
	if d := FindOption(opts, OptWScale); len(d) != 1 || d[0] != 7 {
		t.Fatalf("WScale data = %v", d)
	}
	if FindOption(opts, OptTimestamps) != nil {
		t.Fatal("found absent option")
	}
}

func TestPACKRoundTrip(t *testing.T) {
	var buf [PACKOptionLen]byte
	n := EncodePACK(buf[:], PACKInfo{TotalBytes: 123456, MarkedBytes: 7890})
	if n != PACKOptionLen {
		t.Fatalf("encoded %d bytes", n)
	}
	info, ok := ParsePACK(buf[2:n])
	if !ok || info.TotalBytes != 123456 || info.MarkedBytes != 7890 {
		t.Fatalf("round trip: %+v ok=%v", info, ok)
	}
	if _, ok := ParsePACK(buf[2:6]); ok {
		t.Fatal("short PACK accepted")
	}
}

func mustACK(t *testing.T, opts []byte) *Packet {
	t.Helper()
	return Build(MakeAddr(10, 0, 0, 2), MakeAddr(10, 0, 0, 1), NotECT, TCPFields{
		SrcPort: 5001, DstPort: 40000, Seq: 2000, Ack: 1500,
		Flags: FlagACK, Window: 0xfff0, Options: opts,
	}, 0)
}

func verifyWhole(t *testing.T, pkt []byte, what string) {
	t.Helper()
	ip := IPv4(pkt)
	if !ip.Valid() {
		t.Fatalf("%s: invalid IP", what)
	}
	if !ip.VerifyChecksum() {
		t.Fatalf("%s: bad IP checksum", what)
	}
	tc := ip.TCP()
	if !tc.Valid() {
		t.Fatalf("%s: invalid TCP", what)
	}
	if !tc.VerifyChecksum(ip.PseudoHeaderSum(tcpLenOf(ip))) {
		t.Fatalf("%s: bad TCP checksum", what)
	}
}

// insertInPlace runs InsertTCPOptionInPlace on a copy of pkt whose buffer
// has spare bytes of capacity past its length (none forces the reallocating
// branch) and returns the result, or nil if the insert refused. A refusal must
// leave the packet untouched.
func insertInPlace(t testing.TB, pkt, opt []byte, spare int) []byte {
	t.Helper()
	p := &Packet{Buf: append(make([]byte, 0, len(pkt)+spare), pkt...)}
	if !InsertTCPOptionInPlace(p, opt) {
		if !bytes.Equal(p.Buf, pkt) {
			t.Fatal("refused insert modified the packet")
		}
		return nil
	}
	return p.Buf
}

// removeInPlace runs RemoveTCPOptionInPlace on a copy of pkt and returns
// the result; a refusal must leave the packet untouched.
func removeInPlace(t testing.TB, pkt []byte, kind byte) []byte {
	t.Helper()
	p := &Packet{Buf: append([]byte(nil), pkt...)}
	if !RemoveTCPOptionInPlace(p, kind) && !bytes.Equal(p.Buf, pkt) {
		t.Fatal("refused remove modified the packet")
	}
	return p.Buf
}

// insertBoth runs insertInPlace through both branches, growing within spare
// capacity and reallocating, and requires the two to agree.
func insertBoth(t testing.TB, pkt, opt []byte) []byte {
	t.Helper()
	grown := insertInPlace(t, pkt, opt, MaxTCPHeaderLen)
	if realloc := insertInPlace(t, pkt, opt, 0); !bytes.Equal(grown, realloc) {
		t.Fatalf("insert within capacity gave %x, reallocating insert %x", grown, realloc)
	}
	return grown
}

func TestInsertAndRemovePACK(t *testing.T) {
	p := mustACK(t, nil)
	orig := append([]byte(nil), p.Buf...)

	var opt [PACKOptionLen]byte
	EncodePACK(opt[:], PACKInfo{TotalBytes: 9000, MarkedBytes: 4500})
	withPack := insertBoth(t, p.Buf, opt[:])
	if withPack == nil {
		t.Fatal("InsertTCPOptionInPlace failed")
	}
	verifyWhole(t, withPack, "after insert")

	ip := IPv4(withPack)
	tc := ip.TCP()
	if tc.HeaderLen() != TCPHeaderLen+12 {
		t.Fatalf("TCP header len = %d, want %d", tc.HeaderLen(), TCPHeaderLen+12)
	}
	if int(ip.TotalLen()) != len(orig)+12 {
		t.Fatalf("IP total len = %d", ip.TotalLen())
	}
	data := FindOption(tc.Options(), OptPACK)
	info, ok := ParsePACK(data)
	if !ok || info.TotalBytes != 9000 || info.MarkedBytes != 4500 {
		t.Fatalf("PACK after insert: %+v ok=%v", info, ok)
	}
	// Other fields undisturbed.
	if tc.Seq() != 2000 || tc.Ack() != 1500 || tc.Window() != 0xfff0 {
		t.Fatal("insert disturbed TCP fields")
	}

	stripped := removeInPlace(t, withPack, OptPACK)
	verifyWhole(t, stripped, "after remove")
	if !bytes.Equal(stripped, orig) {
		t.Fatalf("remove(insert(p)) != p:\n got %x\nwant %x", stripped, orig)
	}
}

func TestInsertPACKAlongsideExistingOptions(t *testing.T) {
	// An ACK that already carries a timestamp-like 10-byte option.
	ts := make([]byte, 10)
	ts[0] = OptTimestamps
	ts[1] = 10
	p := mustACK(t, ts)

	var opt [PACKOptionLen]byte
	EncodePACK(opt[:], PACKInfo{TotalBytes: 1, MarkedBytes: 1})
	out := insertBoth(t, p.Buf, opt[:])
	verifyWhole(t, out, "insert alongside ts")
	tc := IPv4(out).TCP()
	if FindOption(tc.Options(), OptTimestamps) == nil {
		t.Fatal("existing option lost")
	}
	if FindOption(tc.Options(), OptPACK) == nil {
		t.Fatal("PACK not inserted")
	}

	// Removing PACK restores the original exactly.
	back := removeInPlace(t, out, OptPACK)
	if !bytes.Equal(back, p.Buf) {
		t.Fatal("remove did not restore original")
	}
}

func TestInsertTCPOptionOverflow(t *testing.T) {
	// Fill the options area to the max (40 bytes) and verify insert fails,
	// signalling the FACK fallback.
	full := make([]byte, 40)
	for i := range full {
		full[i] = OptNOP
	}
	p := mustACK(t, full)
	var opt [PACKOptionLen]byte
	EncodePACK(opt[:], PACKInfo{})
	if insertBoth(t, p.Buf, opt[:]) != nil {
		t.Fatal("insert into full header should fail")
	}
}

func TestRemoveAbsentOption(t *testing.T) {
	p := mustACK(t, nil)
	out := removeInPlace(t, p.Buf, OptPACK)
	if !bytes.Equal(out, p.Buf) {
		t.Fatal("removing absent option changed packet")
	}
}

func TestRemoveUnalignableOptionNops(t *testing.T) {
	// A 3-byte option between two non-NOP 4-aligned neighbours cannot be
	// shrunk; it must be NOP-ed in place.
	opts := []byte{
		OptMSS, 4, 0x01, 0x02, // 4 bytes
		OptWScale, 3, 9, // 3 bytes, unaligned
		OptSACKPerm, 2, OptEOL, OptEOL, OptEOL, // fills to 12
	}
	p := mustACK(t, opts)
	before := IPv4(p.Buf).TCP().HeaderLen()
	out := removeInPlace(t, p.Buf, OptWScale)
	verifyWhole(t, out, "nop-fallback")
	tc := IPv4(out).TCP()
	if tc.HeaderLen() != before {
		t.Fatalf("header resized in NOP fallback: %d != %d", tc.HeaderLen(), before)
	}
	if FindOption(tc.Options(), OptWScale) != nil {
		t.Fatal("option still present")
	}
	if FindOption(tc.Options(), OptMSS) == nil {
		t.Fatal("unrelated option lost")
	}
}

// Property: insert-then-remove is the identity for arbitrary PACK payloads.
func TestInsertRemoveIdentityProperty(t *testing.T) {
	prop := func(total, marked uint32, win uint16) bool {
		p := Build(MakeAddr(10, 0, 0, 2), MakeAddr(10, 0, 0, 1), NotECT, TCPFields{
			SrcPort: 5001, DstPort: 40000, Flags: FlagACK, Window: win,
		}, 0)
		var opt [PACKOptionLen]byte
		EncodePACK(opt[:], PACKInfo{TotalBytes: total, MarkedBytes: marked})
		ins := insertBoth(t, p.Buf, opt[:])
		if ins == nil {
			return false
		}
		got, ok := ParsePACK(FindOption(IPv4(ins).TCP().Options(), OptPACK))
		if !ok || got.TotalBytes != total || got.MarkedBytes != marked {
			return false
		}
		return bytes.Equal(removeInPlace(t, ins, OptPACK), p.Buf)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInsertPACK(b *testing.B) {
	p := Build(MakeAddr(10, 0, 0, 2), MakeAddr(10, 0, 0, 1), NotECT, TCPFields{
		SrcPort: 5001, DstPort: 40000, Flags: FlagACK, Window: 65535,
	}, 0)
	var opt [PACKOptionLen]byte
	EncodePACK(opt[:], PACKInfo{TotalBytes: 1 << 20, MarkedBytes: 1 << 10})
	q := &Packet{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Buf = append(q.Buf[:0], p.Buf...)
		InsertTCPOptionInPlace(q, opt[:])
	}
}
