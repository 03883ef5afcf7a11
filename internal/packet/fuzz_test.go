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

// FuzzRemoveTCPOption feeds arbitrary buffers straight into the option
// rewriter — the exact input shape a corrupted packet presents on the
// datapath. Invalid headers must pass through untouched; valid ones must
// stay valid with their virtual payload length intact.
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
		in := append([]byte(nil), pkt...)
		out := RemoveTCPOption(in, kind)
		if out == nil && len(pkt) > 0 {
			t.Fatal("RemoveTCPOption returned nil")
		}
		if !bytes.Equal(in, pkt) {
			t.Fatal("input buffer was mutated")
		}
		ip := IPv4(pkt)
		if !ip.Valid() || ip.Protocol() != ProtoTCP || !ip.TCP().Valid() {
			if !bytes.Equal(out, in) {
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
