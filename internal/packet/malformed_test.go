package packet

import (
	"bytes"
	"testing"
)

// malformedOptionCases is the shared table of damaged TCP option blocks the
// parsers must survive: truncated lengths, zero/one lengths, lengths past the
// buffer end, options overlapping the next one, and kind-only tails.
var malformedOptionCases = []struct {
	name string
	opts []byte
}{
	{"empty", nil},
	{"kind-only", []byte{OptMSS}},
	{"zero-length", []byte{OptMSS, 0}},
	{"one-length", []byte{OptMSS, 1}},
	{"length-past-end", []byte{OptMSS, 60, 1, 2}},
	{"length-past-end-by-one", []byte{OptMSS, 5, 1, 2}},
	{"unknown-kind-truncated", []byte{OptNOP, OptNOP, 42}},
	{"pack-truncated-data", []byte{OptPACK, 10, 1, 2, 3}},
	{"pack-short-length", []byte{OptPACK, 4, 1, 2, OptMSS, 4, 0x23, 0x00}},
	{"sack-odd-overlap", []byte{OptSACK, 3, OptMSS, 4, 1, 2}},
	{"nop-run-then-truncated", []byte{OptNOP, OptNOP, OptNOP, OptWScale, 3}},
	{"wild-lengths", []byte{0xfe, 0xff, 0xde, 0xad}},
	{"zero-kind-mid-block", []byte{OptMSS, 4, 1, 2, OptEOL, 0xff}},
}

func TestMalformedOptionsDoNotPanic(t *testing.T) {
	for _, tc := range malformedOptionCases {
		t.Run(tc.name, func(t *testing.T) {
			ParseOptions(tc.opts, nil)
			ParseSynOptions(tc.opts)
			for _, kind := range []byte{OptMSS, OptPACK, OptSACK, 0xfe} {
				if d := FindOption(tc.opts, kind); d != nil && len(d) > len(tc.opts) {
					t.Errorf("FindOption(%d) returned out-of-range slice", kind)
				}
			}
			OptionsWellFormed(tc.opts)
		})
	}
}

func TestOptionsWellFormed(t *testing.T) {
	good := [][]byte{
		nil,
		{},
		{OptEOL},
		{OptNOP, OptNOP, OptNOP},
		BuildSynOptions(1460, 7, true),
		{OptMSS, 4, 5, 0xb4},
		{OptEOL, 0xff, 0xff}, // EOL terminates; tail is ignored by parsers too
	}
	for i, g := range good {
		if !OptionsWellFormed(g) {
			t.Errorf("good[%d] %v judged malformed", i, g)
		}
	}
	for _, tc := range malformedOptionCases {
		switch tc.name {
		case "empty", "nop-run-then-truncated", "zero-kind-mid-block":
			// These parse cleanly to the end (or hit EOL first).
			if tc.name != "nop-run-then-truncated" && !OptionsWellFormed(tc.opts) {
				t.Errorf("%s should be well-formed", tc.name)
			}
		}
	}
	bad := [][]byte{
		{OptMSS},
		{OptMSS, 0},
		{OptMSS, 1},
		{OptMSS, 60, 1, 2},
		{OptPACK, 10, 1, 2, 3},
		{OptWScale, 3},
	}
	for i, b := range bad {
		if OptionsWellFormed(b) {
			t.Errorf("bad[%d] %v judged well-formed", i, b)
		}
	}
}

func TestParsePACKTruncated(t *testing.T) {
	for n := 0; n < 8; n++ {
		if _, ok := ParsePACK(make([]byte, n)); ok {
			t.Errorf("ParsePACK accepted %d bytes", n)
		}
	}
	var opt [PACKOptionLen]byte
	EncodePACK(opt[:], PACKInfo{TotalBytes: 7, MarkedBytes: 3})
	info, ok := ParsePACK(opt[2:])
	if !ok || info.TotalBytes != 7 || info.MarkedBytes != 3 {
		t.Fatalf("round trip: %+v %v", info, ok)
	}
}

// buildWithRawOptions assembles a full IPv4+TCP packet whose option block is
// opts verbatim (padded with NOPs to a 4-byte boundary), bypassing the
// sanity checks Build applies — the input shape RemoveTCPOptionInPlace sees when a
// corrupted packet reaches the datapath.
func buildWithRawOptions(opts []byte) *Packet {
	return Build(MakeAddr(10, 0, 0, 1), MakeAddr(10, 0, 0, 2), NotECT, TCPFields{
		SrcPort: 1, DstPort: 2, Seq: 10, Ack: 20,
		Flags: FlagACK, Window: 1000, Options: opts,
	}, 100)
}

func TestRemoveTCPOptionMalformed(t *testing.T) {
	for _, tc := range malformedOptionCases {
		if len(tc.opts) == 0 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			p := buildWithRawOptions(tc.opts)
			before := append([]byte(nil), p.Buf...)
			out := removeInPlace(t, p.Buf, OptPACK)
			if ip := IPv4(out); !ip.Valid() || !ip.TCP().Valid() {
				t.Fatal("result invalid")
			}
			// A block the locator can't parse must be left untouched.
			if FindOption(TCP(IPv4(before).Payload()).Options(), OptPACK) == nil &&
				!bytes.Equal(out, before) {
				t.Error("packet mutated though option was absent/unlocatable")
			}
		})
	}
}

func TestRemoveTCPOptionTruncatedHeaders(t *testing.T) {
	p := buildWithRawOptions(BuildSynOptions(1460, 7, true))
	for n := 0; n <= len(p.Buf); n++ {
		trunc := p.Buf[:n]
		out := removeInPlace(t, trunc, OptMSS) // must not panic at any cut
		if n < len(p.Buf) && !bytes.Equal(out, trunc) {
			// Headers that fail Valid() must pass through untouched.
			ip := IPv4(trunc)
			if !ip.Valid() || !ip.TCP().Valid() {
				t.Fatalf("truncated packet (%dB) was mutated", n)
			}
		}
	}
}

func TestInsertTCPOptionTruncatedHeaders(t *testing.T) {
	var opt [PACKOptionLen]byte
	EncodePACK(opt[:], PACKInfo{TotalBytes: 1, MarkedBytes: 1})
	p := buildWithRawOptions(nil)
	for n := 0; n < IPv4HeaderLen+TCPHeaderLen; n++ {
		if out := insertBoth(t, p.Buf[:n], opt[:]); out != nil {
			t.Fatalf("InsertTCPOptionInPlace accepted %d-byte packet", n)
		}
	}
}
