package packet

import (
	"bytes"
	"testing"
)

// FuzzParseOptions drives every option-block parser with arbitrary bytes.
// The parsers are lenient by design (malformed tails are ignored), so the
// invariants are memory-safety ones: no panics, no out-of-range slices, and
// agreement between OptionsWellFormed and a clean parse.
func FuzzParseOptions(f *testing.F) {
	f.Add([]byte{})
	f.Add(BuildSynOptions(1460, 7, true))
	f.Add([]byte{OptMSS, 60, 1, 2})
	f.Add([]byte{OptPACK, 10, 0, 0, 0, 9, 0, 0, 0, 3})
	f.Add([]byte{OptNOP, OptNOP, OptEOL, 0xff})
	f.Add([]byte{0xfe, 0xff, 0xde, 0xad})
	f.Fuzz(func(t *testing.T, opts []byte) {
		parsed := ParseOptions(opts, nil)
		for _, o := range parsed {
			if len(o.Data) > len(opts) {
				t.Fatalf("option %d data longer than input", o.Kind)
			}
		}
		ParseSynOptions(opts)
		for _, kind := range []byte{OptMSS, OptWScale, OptSACK, OptPACK, OptECNEcho} {
			if d := FindOption(opts, kind); len(d) > len(opts) {
				t.Fatalf("FindOption(%d) data longer than input", kind)
			}
		}
		if d := FindOption(opts, OptPACK); d != nil {
			ParsePACK(d)
		}
		OptionsWellFormed(opts)
	})
}

// FuzzPACKRoundTrip checks Encode→Find→Parse is lossless for every counter
// pair, and that the datapath's editors — InsertTCPOptionInPlace on a pooled
// buffer with spare capacity and on an exact-capacity one, then
// StripTCPOptionInPlace — keep the headers valid and the virtual payload
// length intact, and leave no PACK behind.
func FuzzPACKRoundTrip(f *testing.F) {
	f.Add(uint32(0), uint32(0))
	f.Add(uint32(9000), uint32(3000))
	f.Add(uint32(0xffffffff), uint32(1))
	f.Fuzz(func(t *testing.T, total, marked uint32) {
		var opt [PACKOptionLen]byte
		EncodePACK(opt[:], PACKInfo{TotalBytes: total, MarkedBytes: marked})
		info, ok := ParsePACK(opt[2:])
		if !ok || info.TotalBytes != total || info.MarkedBytes != marked {
			t.Fatalf("round trip: got %+v ok=%v", info, ok)
		}

		pooled := BuildIn(NewPool(), MakeAddr(10, 0, 0, 2), MakeAddr(10, 0, 0, 1), NotECT, TCPFields{
			SrcPort: 5001, DstPort: 4000, Seq: 1, Ack: 100,
			Flags: FlagACK, Window: 65535,
		}, 1448)
		exact := &Packet{Buf: make([]byte, len(pooled.Buf))} // no spare capacity: the insert reallocates
		copy(exact.Buf, pooled.Buf)
		payload := pooled.PayloadLen()
		for _, p := range []*Packet{pooled, exact} {
			if !InsertTCPOptionInPlace(p, opt[:]) {
				t.Fatal("InsertTCPOptionInPlace failed on a bare ACK")
			}
			verifyWhole(t, p.Buf, "after insert")
			info2, ok := ParsePACK(FindOption(p.TCP().Options(), OptPACK))
			if !ok || info2 != info {
				t.Fatalf("after insert: got %+v ok=%v", info2, ok)
			}
			if !StripTCPOptionInPlace(p, OptPACK) {
				t.Fatal("StripTCPOptionInPlace found no PACK")
			}
			verifyWhole(t, p.Buf, "after strip")
			if FindOption(p.TCP().Options(), OptPACK) != nil {
				t.Fatal("PACK survived the strip")
			}
			if got := p.PayloadLen(); got != payload {
				t.Fatalf("virtual payload changed: %d -> %d", payload, got)
			}
		}
		if !bytes.Equal(pooled.Buf, exact.Buf) {
			t.Fatal("the growing and the reallocating insert disagree")
		}
	})
}

// FuzzRemoveTCPOption feeds arbitrary buffers straight into
// RemoveTCPOptionInPlace — the exact input shape a corrupted packet presents
// to the feedback-loss fault. Invalid headers must pass through untouched;
// valid ones must stay valid with their virtual payload length intact.
func FuzzRemoveTCPOption(f *testing.F) {
	ack := Build(MakeAddr(1, 2, 3, 4), MakeAddr(5, 6, 7, 8), ECT0, TCPFields{
		SrcPort: 1, DstPort: 2, Seq: 9, Ack: 8, Flags: FlagACK, Window: 512,
		Options: BuildSynOptions(1460, 7, true),
	}, 1448)
	f.Add(ack.Buf, byte(OptMSS))
	f.Add(ack.Buf, byte(OptPACK))
	f.Add([]byte{}, byte(OptPACK))
	f.Add(ack.Buf[:21], byte(OptMSS))
	f.Fuzz(func(t *testing.T, pkt []byte, kind byte) {
		out := removeInPlace(t, pkt, kind)
		ip := IPv4(pkt)
		if !ip.Valid() || ip.Protocol() != ProtoTCP || !ip.TCP().Valid() {
			if !bytes.Equal(out, pkt) {
				t.Fatal("invalid packet was rewritten")
			}
			return
		}
		oip := IPv4(out)
		if !oip.Valid() || !oip.TCP().Valid() {
			t.Fatal("valid packet became invalid after removal")
		}
		inPay := int(ip.TotalLen()) - ip.HeaderLen() - ip.TCP().HeaderLen()
		outPay := int(oip.TotalLen()) - oip.HeaderLen() - oip.TCP().HeaderLen()
		if inPay != outPay {
			t.Fatalf("virtual payload changed: %d -> %d", inPay, outPay)
		}
	})
}

// FuzzOptionEditsMatchReference holds each option editor to the editor it
// replaced (reference_test.go) on arbitrary headers: the same verdict and
// the same bytes. An insert runs on a buffer with spare bytes of capacity,
// so both of its branches are reached. The one difference allowed is the
// contract's: the editors keep the reserved bits beside the data offset,
// which the old insert and remove cleared. Such a result is compared with
// those bits cleared and the TCP checksum recomputed, which is how the
// reference finished it.
func FuzzOptionEditsMatchReference(f *testing.F) {
	var pack [PACKOptionLen]byte
	EncodePACK(pack[:], PACKInfo{TotalBytes: 42, MarkedBytes: 7})
	ack := Build(MakeAddr(1, 2, 3, 4), MakeAddr(5, 6, 7, 8), ECT0, TCPFields{
		SrcPort: 1, DstPort: 2, Seq: 9, Ack: 8, Flags: FlagACK, Window: 512,
		Options: append(BuildSynOptions(1460, 7, true), pack[:]...),
	}, 1448)
	reserved := append([]byte(nil), ack.Buf...)
	reserved[IPv4HeaderLen+12] |= 0x0b
	f.Add(ack.Buf, byte(OptPACK), pack[:], byte(0))
	f.Add(ack.Buf, byte(OptWScale), []byte{OptMSS, 4, 5, 0xb4}, byte(60))
	f.Add(reserved, byte(OptPACK), pack[:], byte(12))
	f.Add(append(ack.Buf, 0xde, 0xad, 0xbe, 0xef), byte(OptMSS), []byte{OptSACKPerm, 2}, byte(3))
	f.Add([]byte{}, byte(OptPACK), pack[:], byte(0))
	f.Add(ack.Buf[:27], byte(OptMSS), pack[:], byte(8))
	f.Fuzz(func(t *testing.T, pkt []byte, kind byte, opt []byte, spare byte) {
		edits := []struct {
			name     string
			edit     func(*Packet) bool
			ref      func(*Packet) bool
			capacity int
		}{
			{"insert", func(p *Packet) bool { return InsertTCPOptionInPlace(p, opt) },
				func(p *Packet) bool { return refInsertTCPOptionInPlace(p, opt) }, len(pkt) + int(spare)},
			{"strip", func(p *Packet) bool { return StripTCPOptionInPlace(p, kind) },
				func(p *Packet) bool { return refStripTCPOptionInPlace(p, kind) }, len(pkt)},
			{"remove", func(p *Packet) bool { return RemoveTCPOptionInPlace(p, kind) },
				func(p *Packet) bool {
					out := refRemoveTCPOption(p.Buf, kind)
					moved := len(out) > 0 && &out[0] != &p.Buf[0]
					p.Buf = out
					return moved
				}, len(pkt)},
			{"remove-all", RemoveAllTCPOptionsInPlace, refStripAllOptions, len(pkt)},
		}
		for _, e := range edits {
			got := &Packet{Buf: append(make([]byte, 0, e.capacity), pkt...)}
			want := &Packet{Buf: append(make([]byte, 0, e.capacity), pkt...)}
			ok, refOK := e.edit(got), e.ref(want)
			if ok != refOK {
				t.Fatalf("%s: verdict %v, reference %v", e.name, ok, refOK)
			}
			if ok {
				ihl := IPv4(pkt).HeaderLen()
				if got.Buf[ihl+12]&0x0f != pkt[ihl+12]&0x0f {
					t.Fatalf("%s: reserved bits %x, input %x", e.name, got.Buf[ihl+12]&0x0f, pkt[ihl+12]&0x0f)
				}
				if want.Buf[ihl+12]&0x0f == 0 && got.Buf[ihl+12]&0x0f != 0 {
					got.Buf[ihl+12] &^= 0x0f
					ip := IPv4(got.Buf)
					ip.TCP().ComputeChecksum(ip.PseudoHeaderSum(tcpLenOf(ip)))
				}
			}
			if !bytes.Equal(got.Buf, want.Buf) {
				t.Fatalf("%s (verdict %v):\n got %x\nwant %x", e.name, ok, got.Buf, want.Buf)
			}
		}
	})
}

// FuzzInsertTCPOption checks the attach path against arbitrary base packets,
// through both of InsertTCPOptionInPlace's branches: either a clean refusal
// that leaves the packet untouched, or a valid packet containing the new
// option with its virtual payload length intact.
func FuzzInsertTCPOption(f *testing.F) {
	ack := Build(MakeAddr(1, 2, 3, 4), MakeAddr(5, 6, 7, 8), NotECT, TCPFields{
		SrcPort: 1, DstPort: 2, Flags: FlagACK, Window: 512,
	}, 0)
	f.Add(ack.Buf)
	f.Add([]byte{})
	f.Add(ack.Buf[:27])
	f.Fuzz(func(t *testing.T, pkt []byte) {
		var opt [PACKOptionLen]byte
		EncodePACK(opt[:], PACKInfo{TotalBytes: 42, MarkedBytes: 7})
		out := insertBoth(t, pkt, opt[:])
		if out == nil {
			return
		}
		ip, oip := IPv4(pkt), IPv4(out)
		if !oip.Valid() || !oip.TCP().Valid() {
			t.Fatal("insert produced invalid packet")
		}
		if !oip.TCP().VerifyChecksum(oip.PseudoHeaderSum(tcpLenOf(oip))) {
			t.Fatal("insert left a bad TCP checksum")
		}
		// Insert only succeeds when the result is reachable: an EOL or
		// malformed block makes InsertTCPOptionInPlace refuse instead.
		if FindOption(oip.TCP().Options(), OptPACK) == nil {
			t.Fatal("inserted option not findable")
		}
		inPay := int(ip.TotalLen()) - ip.HeaderLen() - ip.TCP().HeaderLen()
		outPay := int(oip.TotalLen()) - oip.HeaderLen() - oip.TCP().HeaderLen()
		if inPay != outPay {
			t.Fatalf("virtual payload changed: %d -> %d", inPay, outPay)
		}
	})
}
