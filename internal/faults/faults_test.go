package faults

import (
	"strings"
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

func TestParseNamedProfiles(t *testing.T) {
	for _, name := range names(profiles) {
		p, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if p.Name != name {
			t.Errorf("Parse(%q).Name = %q", name, p.Name)
		}
		if name == "none" {
			if p.Enabled() {
				t.Errorf("profile none is Enabled")
			}
		} else if !p.Enabled() {
			t.Errorf("profile %s is not Enabled", name)
		}
	}
	if _, ok := Lookup("no-such-profile"); ok {
		t.Error("Lookup accepted unknown name")
	}
}

func TestParseKeyValue(t *testing.T) {
	p, err := Parse("drop=0.01, jitter=100us, feedback-loss=0.5,reorder=0.02,reorder-delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop != 0.01 || p.DropFeedback != 0.5 || p.Reorder != 0.02 {
		t.Errorf("bad probabilities: %+v", p)
	}
	if p.Jitter != 100*sim.Microsecond || p.ReorderDelay != sim.Millisecond {
		t.Errorf("bad durations: %+v", p)
	}

	if p, err := Parse(""); err != nil || p.Enabled() {
		t.Errorf("Parse(\"\") = %+v, %v", p, err)
	}
	for _, bad := range []string{
		"nope", "drop", "drop=1.5", "drop=-0.1", "drop=x", "drop=NaN",
		"jitter=5", "jitter=-1ms", "mystery=0.1",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestProfileString(t *testing.T) {
	p, _ := Lookup("chaos")
	if got := p.String(); got != "chaos" {
		t.Errorf("String() = %q, want the registered name", got)
	}
	p.Name = ""
	s := p.String()
	for _, want := range []string{"drop=0.005", "feedback-loss=0.2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	if got := (Profile{}).String(); got != "" {
		t.Errorf("zero String() = %q", got)
	}
	if got := (Profile{Name: "none"}).String(); got != "none" {
		t.Errorf("none String() = %q", got)
	}
}

func TestReorderDelayDefault(t *testing.T) {
	p := Profile{Reorder: 0.5}.withDefaults()
	if p.ReorderDelay != 200*sim.Microsecond {
		t.Errorf("ReorderDelay default = %v", p.ReorderDelay)
	}
}

// dataSegment builds a well-formed guest data segment with a timestamp-shaped
// option block.
func dataSegment() *packet.Packet {
	return packet.Build(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
		packet.ECT0, packet.TCPFields{
			SrcPort: 4000, DstPort: 5001, Seq: 100, Ack: 1,
			Flags: packet.FlagACK | packet.FlagPSH, Window: 65535,
			Options: []byte{packet.OptNOP, packet.OptNOP, 8 /* timestamps */, 10, 0, 0, 0, 1, 0, 0, 0, 2},
		}, 1448)
}

// packACK builds a pure ACK carrying a piggybacked PACK option.
func packACK() *packet.Packet {
	var opt [packet.PACKOptionLen]byte
	packet.EncodePACK(opt[:], packet.PACKInfo{TotalBytes: 9000, MarkedBytes: 3000})
	return packet.Build(packet.MakeAddr(10, 0, 0, 2), packet.MakeAddr(10, 0, 0, 1),
		packet.NotECT, packet.TCPFields{
			SrcPort: 5001, DstPort: 4000, Seq: 1, Ack: 1548,
			Flags: packet.FlagACK, Window: 65535, Options: opt[:],
		}, 0)
}

// fack builds a dedicated FACK feedback packet (pure ACK, OptFACK payload).
func fack() *packet.Packet {
	return packet.BuildFACKIn(nil, packet.MakeAddr(10, 0, 0, 2), packet.MakeAddr(10, 0, 0, 1),
		packet.NotECT, packet.TCPFields{SrcPort: 5001, DstPort: 4000},
		packet.PACKInfo{TotalBytes: 12345, MarkedBytes: 321})
}

// runHook passes p through an injector hook and returns the delivered copies
// with their extra delays.
func runHook(in *Injector, p *packet.Packet) (out []*packet.Packet, extras []sim.Duration) {
	in.Hook(nil, p, func(q *packet.Packet, extra sim.Duration) {
		out = append(out, q)
		extras = append(extras, extra)
	})
	return
}

func TestHookDrop(t *testing.T) {
	in := NewInjector(Profile{Drop: 1}, 1)
	out, _ := runHook(in, dataSegment())
	if len(out) != 0 {
		t.Fatalf("Drop=1 delivered %d packets", len(out))
	}
	if in.drops.Value() != 1 || in.Total() != 1 {
		t.Errorf("drops=%d total=%d", in.drops.Value(), in.Total())
	}
}

func TestHookDup(t *testing.T) {
	in := NewInjector(Profile{Dup: 1}, 1)
	p := dataSegment()
	out, _ := runHook(in, p)
	if len(out) != 2 {
		t.Fatalf("Dup=1 delivered %d packets", len(out))
	}
	if out[0] == p {
		t.Error("duplicate is not a clone")
	}
	if string(out[0].Buf) != string(out[1].Buf) {
		t.Error("duplicate differs from original")
	}
}

func TestHookReorderAndJitter(t *testing.T) {
	prof := Profile{Reorder: 1, ReorderDelay: 300 * sim.Microsecond, Jitter: 50 * sim.Microsecond}
	in := NewInjector(prof, 7)
	_, extras := runHook(in, dataSegment())
	if len(extras) != 1 {
		t.Fatalf("delivered %d packets", len(extras))
	}
	if extras[0] < 300*sim.Microsecond || extras[0] > 350*sim.Microsecond {
		t.Errorf("extra delay %v outside [300us, 350us]", extras[0])
	}
	if in.reorders.Value() != 1 {
		t.Errorf("reorders=%d", in.reorders.Value())
	}
}

func TestHookCorrupt(t *testing.T) {
	in := NewInjector(Profile{Corrupt: 1}, 3)
	p := dataSegment()
	orig := p.Clone()
	out, _ := runHook(in, p)
	if len(out) != 1 {
		t.Fatalf("delivered %d packets", len(out))
	}
	got := out[0]
	if got.TCP().Checksum() == orig.TCP().Checksum() {
		t.Error("checksum not damaged")
	}
	// Addresses, ports, seq/ack must survive so the flow still completes.
	if got.IP().Src() != orig.IP().Src() || got.TCP().Seq() != orig.TCP().Seq() ||
		got.TCP().Ack() != orig.TCP().Ack() || got.TCP().SrcPort() != orig.TCP().SrcPort() {
		t.Error("corrupt damaged addressing/sequencing fields")
	}
	if in.corrupts.Value() != 1 {
		t.Errorf("corrupts=%d", in.corrupts.Value())
	}
}

func TestHookStripOptions(t *testing.T) {
	in := NewInjector(Profile{StripOptions: 1}, 3)
	p := dataSegment()
	origPayload := p.PayloadLen()
	out, _ := runHook(in, p)
	if len(out) != 1 {
		t.Fatalf("delivered %d packets", len(out))
	}
	got := out[0]
	ip := got.IP()
	tcp := ip.TCP()
	if !ip.Valid() || !tcp.Valid() {
		t.Fatal("stripped packet invalid")
	}
	if tcp.HeaderLen() != packet.TCPHeaderLen {
		t.Errorf("TCP header %dB after strip", tcp.HeaderLen())
	}
	if got.PayloadLen() != origPayload {
		t.Errorf("payload %d != %d after strip", got.PayloadLen(), origPayload)
	}
	if !ip.VerifyChecksum() {
		t.Error("IP checksum broken after strip")
	}
	if packet.ChecksumWith(tcp[:tcp.HeaderLen()], ip.PseudoHeaderSum(ip.TotalLen()-uint16(ip.HeaderLen()))) != 0 {
		t.Error("TCP checksum broken after strip")
	}
	if in.strips.Value() != 1 {
		t.Errorf("strips=%d", in.strips.Value())
	}

	// Option-less packets pass through uncounted.
	out2, _ := runHook(in, out[0].Clone())
	if len(out2) != 1 || in.strips.Value() != 1 {
		t.Error("bare packet was counted as stripped")
	}
}

// TestHookStripOptionsRefusesLyingTotalLen: an ACK whose IP total length is
// shorter than its own 52 header bytes passes the option strip untouched,
// as it passes the packet package's option editors; shrinking it would wrap
// the total length to about 64 KB.
func TestHookStripOptionsRefusesLyingTotalLen(t *testing.T) {
	in := NewInjector(Profile{StripOptions: 1}, 3)
	p := packet.Build(packet.MakeAddr(10, 0, 0, 2), packet.MakeAddr(10, 0, 0, 1),
		packet.NotECT, packet.TCPFields{
			SrcPort: 5001, DstPort: 4000, Seq: 1, Ack: 1,
			Flags: packet.FlagACK, Window: 65535,
			Options: []byte{packet.OptNOP, packet.OptNOP, 8, 10, 0, 0, 0, 1, 0, 0, 0, 2},
		}, 0)
	if len(p.Buf) != 52 {
		t.Fatalf("built a %d-byte packet, want 52", len(p.Buf))
	}
	p.IP().SetTotalLen(8)
	want := append([]byte(nil), p.Buf...)
	out, _ := runHook(in, p)
	if len(out) != 1 {
		t.Fatalf("delivered %d packets", len(out))
	}
	if got := out[0].IP().TotalLen(); got != 8 || string(out[0].Buf) != string(want) {
		t.Fatalf("lying packet rewritten: total length %d, %d bytes", got, len(out[0].Buf))
	}
	if in.strips.Value() != 0 {
		t.Fatalf("strips=%d, want 0", in.strips.Value())
	}
}

func TestHookDropFeedback(t *testing.T) {
	in := NewInjector(Profile{DropFeedback: 1}, 9)

	// Dedicated FACK: dropped outright.
	out, _ := runHook(in, fack())
	if len(out) != 0 {
		t.Fatalf("FACK survived feedback-loss: %d delivered", len(out))
	}
	if in.fbDrops.Value() != 1 {
		t.Errorf("fbDrops=%d", in.fbDrops.Value())
	}

	// Piggybacked PACK: option stripped, ACK still delivered.
	out, _ = runHook(in, packACK())
	if len(out) != 1 {
		t.Fatalf("PACK-bearing ACK was dropped")
	}
	if packet.FindOption(out[0].TCP().Options(), packet.OptPACK) != nil {
		t.Error("PACK option survived feedback-loss")
	}
	if in.fbStrips.Value() != 1 {
		t.Errorf("fbStrips=%d", in.fbStrips.Value())
	}

	// Guest data segments pass untouched.
	p := dataSegment()
	want := string(p.Buf)
	out, _ = runHook(in, p)
	if len(out) != 1 || string(out[0].Buf) != want {
		t.Error("feedback-loss touched a guest data segment")
	}

	// SYNs pass untouched even with kind-254 present (OptECNEcho collision).
	syn := packet.Build(packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
		packet.NotECT, packet.TCPFields{
			SrcPort: 4000, DstPort: 5001, Flags: packet.FlagSYN, Window: 65535,
			Options: []byte{packet.OptECNEcho, 2},
		}, 0)
	out, _ = runHook(in, syn)
	if len(out) != 1 {
		t.Error("feedback-loss dropped a SYN")
	}
}

func TestHookDeterminism(t *testing.T) {
	prof, _ := Lookup("chaos")
	mk := func(seed int64) (string, int64) {
		in := NewInjector(prof, seed)
		var trace strings.Builder
		for i := 0; i < 2000; i++ {
			var p *packet.Packet
			switch i % 3 {
			case 0:
				p = dataSegment()
			case 1:
				p = packACK()
			default:
				p = fack()
			}
			out, extras := runHook(in, p)
			trace.WriteByte(byte('0' + len(out)))
			for _, e := range extras {
				trace.WriteString(e.String())
			}
		}
		return trace.String(), in.Total()
	}
	t1, n1 := mk(42)
	t2, n2 := mk(42)
	if t1 != t2 || n1 != n2 {
		t.Fatal("same seed produced different fault sequences")
	}
	t3, _ := mk(43)
	if t1 == t3 {
		t.Fatal("different seeds produced identical fault sequences (suspicious)")
	}
	if n1 == 0 {
		t.Fatal("chaos profile injected nothing over 2000 packets")
	}
}

func TestAttachRespectsDisabledProfile(t *testing.T) {
	s := sim.New(0)
	l := netsim.NewLink(s, "t", 1e9, sim.Microsecond, netsim.HandlerFunc(func(*packet.Packet) {}))
	NewInjector(Profile{}, 1).Attach(l)
	if l.Fault() != nil {
		t.Error("disabled profile installed a hook")
	}
	NewInjector(Profile{Drop: 1}, 1).Attach(l)
	if l.Fault() == nil {
		t.Error("enabled profile did not install a hook")
	}
}

// TestLinkFaultHookWiring drives a real link end to end: with Drop=1 nothing
// arrives, with an empty hook slot everything does.
func TestLinkFaultHookWiring(t *testing.T) {
	s := sim.New(0)
	var got int
	l := netsim.NewLink(s, "t", 1e9, sim.Microsecond, netsim.HandlerFunc(func(*packet.Packet) { got++ }))
	in := NewInjector(Profile{Drop: 1}, 5)
	in.Attach(l)
	for i := 0; i < 10; i++ {
		l.Send(dataSegment())
	}
	s.RunAll()
	if got != 0 {
		t.Fatalf("lossy link delivered %d packets", got)
	}
	l.SetFault(nil)
	for i := 0; i < 10; i++ {
		l.Send(dataSegment())
	}
	s.RunAll()
	if got != 10 {
		t.Fatalf("clean link delivered %d/10", got)
	}
}
