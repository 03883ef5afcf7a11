package faults

import (
	"strings"
	"testing"

	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

func TestParseDomains(t *testing.T) {
	cases := []struct {
		in   string
		want FaultDomain
	}{
		{"link-down,link=a>b", FaultDomain{Kind: DomainLinkDown, Link: "a>b",
			At: sim.Millisecond, For: 100 * sim.Microsecond}},
		{"link-down@2ms,link=a>b,for=500us", FaultDomain{Kind: DomainLinkDown, Link: "a>b",
			At: 2 * sim.Millisecond, For: 500 * sim.Microsecond}},
		{"switch-down@5ms,switch=p1-tor0,for=5ms", FaultDomain{Kind: DomainSwitchDown,
			Switch: "p1-tor0", At: 5 * sim.Millisecond, For: 5 * sim.Millisecond}},
		{"flap,link=up*", FaultDomain{Kind: DomainFlap, Link: "up*", At: sim.Millisecond,
			Down: 100 * sim.Microsecond, Up: sim.Millisecond, Count: 3}},
		{"flap@1ms,link=x,down=500us,up=2ms,count=5", FaultDomain{Kind: DomainFlap, Link: "x",
			At: sim.Millisecond, Down: 500 * sim.Microsecond, Up: 2 * sim.Millisecond, Count: 5}},
		{"gray,link=x", FaultDomain{Kind: DomainGray, Link: "x", At: sim.Millisecond, Loss: 0.01}},
		{"gray@1ms,link=x,loss=0.2,delay=10us,for=3ms", FaultDomain{Kind: DomainGray, Link: "x",
			At: sim.Millisecond, Loss: 0.2, Delay: 10 * sim.Microsecond, For: 3 * sim.Millisecond}},
	}
	for _, tc := range cases {
		got, err := ParseDomains(tc.in)
		if err != nil {
			t.Fatalf("%q: %v", tc.in, err)
		}
		if len(got) != 1 || got[0] != tc.want {
			t.Fatalf("%q: got %+v, want %+v", tc.in, got, tc.want)
		}
	}
	multi, err := ParseDomains("gray,link=a;link-down@4ms,link=b")
	if err != nil || len(multi) != 2 {
		t.Fatalf("multi-spec: %v %v", multi, err)
	}
}

func TestParseDomainsErrors(t *testing.T) {
	for _, in := range []string{
		"", ";", "bogus,link=x", "link-down", "switch-down@1ms", "flap,link=x,count=0",
		"gray,link=x,loss=2", "link-down@-1ms,link=x", "flap,link=x,nope=1",
		"link-down,link", "gray,link=x,delay=zzz", "gray,link=x,loss=NaN",
	} {
		if _, err := ParseDomains(in); err == nil {
			t.Errorf("%q: no error", in)
		}
	}
	_, err := ParseDomains("grya,link=x")
	if err == nil || !strings.Contains(err.Error(), "gray") {
		t.Errorf("typo suggestion missing: %v", err)
	}
}

// TestParseDomainsExplicitZeros: a value a spec states is never replaced by
// its kind's default, and a zero the kind cannot run with is rejected, as
// ParseRestart rejects stale,age=0.
func TestParseDomainsExplicitZeros(t *testing.T) {
	kept := []struct {
		in   string
		want FaultDomain
	}{
		{"gray,link=x,loss=0,delay=10us", FaultDomain{Kind: DomainGray, Link: "x", At: sim.Millisecond,
			Delay: 10 * sim.Microsecond}},
		{"gray,link=x,delay=0", FaultDomain{Kind: DomainGray, Link: "x", At: sim.Millisecond, Loss: 0.01}},
		{"gray,link=x,for=0", FaultDomain{Kind: DomainGray, Link: "x", At: sim.Millisecond, Loss: 0.01}},
	}
	for _, tc := range kept {
		if got, err := ParseDomains(tc.in); err != nil || len(got) != 1 || got[0] != tc.want {
			t.Errorf("%q: got %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
	for in, want := range map[string]string{
		"gray,link=x,loss=0":           "gray needs loss or delay > 0",
		"gray,link=x,loss=0,delay=0":   "gray needs loss or delay > 0",
		"link-down,link=x,for=0":       "link-down needs for > 0",
		"link-down,link=x,down=0":      `link-down takes no key "down"`,
		"switch-down,switch=s,for=0ms": "switch-down needs for > 0",
		"flap,link=x,down=0":           "flap needs down > 0",
		"flap,link=x,up=0s":            "flap needs up > 0",
	} {
		if _, err := ParseDomains(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want %q", in, err, want)
		}
	}
}

func TestDomainStringRoundTrip(t *testing.T) {
	for _, in := range []string{
		"link-down@2ms,link=a>b,for=500us",
		"switch-down@5ms,switch=tor0,for=5ms",
		"flap@1ms,link=x,down=500us,up=2ms,count=5",
		"gray@1ms,link=x,loss=0.2,delay=10us,for=3ms",
	} {
		d, err := ParseDomains(in)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseDomains(d[0].String())
		if err != nil {
			t.Fatalf("%q → %q unparsable: %v", in, d[0].String(), err)
		}
		if back[0] != d[0] {
			t.Fatalf("round trip drifted: %+v vs %+v", d[0], back[0])
		}
	}
}

// listView is a minimal FabricView over a flat link list.
type listView struct{ links []*netsim.Link }

func (v listView) LinksMatching(pattern string) []*netsim.Link {
	prefix, wild := strings.CutSuffix(pattern, "*")
	var out []*netsim.Link
	for _, l := range v.links {
		if (wild && strings.HasPrefix(l.Name, prefix)) || (!wild && l.Name == pattern) {
			out = append(out, l)
		}
	}
	return out
}

func (v listView) SwitchLinks(name string) []*netsim.Link {
	return v.LinksMatching(name + ">*")
}

type domSink struct{ got int }

func (k *domSink) HandlePacket(p *packet.Packet) { k.got++ }

func newDomLink(s *sim.Simulator, name string, pool *packet.Pool) *netsim.Link {
	l := netsim.NewLink(s, name, 1e9, sim.Microsecond, &domSink{})
	l.Pool = pool
	return l
}

func TestDomainsOutageAndFlap(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	a := newDomLink(s, "a>b", pool)
	c := newDomLink(s, "c>d", pool)
	plans, err := ParseDomains("link-down@10us,link=a>b,for=20us;flap@100us,link=c>d,down=10us,up=10us,count=2")
	if err != nil {
		t.Fatal(err)
	}
	ds := NewDomains(plans, 1)
	ds.Schedule(s, listView{links: []*netsim.Link{a, c}})

	s.Run(15 * sim.Microsecond)
	if !a.IsDown() || c.IsDown() {
		t.Fatalf("at 15us: a down=%v c down=%v, want true/false", a.IsDown(), c.IsDown())
	}
	s.Run(40 * sim.Microsecond)
	if a.IsDown() {
		t.Fatal("a still down after the outage window")
	}
	s.RunAll()
	if c.Stats.DownEvents != 2 || c.Stats.UpEvents != 2 {
		t.Fatalf("flap edges: down=%d up=%d, want 2/2", c.Stats.DownEvents, c.Stats.UpEvents)
	}
	snap := ds.Registry().Snapshot()
	if snap.Counter("fabric_link_downs_total") != 3 || snap.Counter("fabric_link_ups_total") != 3 {
		t.Fatalf("registry: downs=%d ups=%d, want 3/3",
			snap.Counter("fabric_link_downs_total"), snap.Counter("fabric_link_ups_total"))
	}
}

func TestDomainsGrayLoss(t *testing.T) {
	run := func(seed int64) (delivered int, dropped int64) {
		s := sim.New(1)
		pool := packet.NewPool()
		k := &domSink{}
		l := netsim.NewLink(s, "g", 1e9, sim.Microsecond, k)
		l.Pool = pool
		plans, err := ParseDomains("gray@1us,link=g,loss=0.5,for=1ms")
		if err != nil {
			t.Fatal(err)
		}
		ds := NewDomains(plans, seed)
		ds.Schedule(s, listView{links: []*netsim.Link{l}})
		s.Run(2 * sim.Microsecond) // window open
		for i := 0; i < 200; i++ {
			l.Send(packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
				packet.ECT0, packet.TCPFields{SrcPort: uint16(i), DstPort: 2, Flags: packet.FlagACK}, 64))
			s.RunFor(sim.Microsecond)
		}
		s.RunAll()
		return k.got, ds.Registry().Snapshot().Counter("fabric_gray_drops_total")
	}
	got, dropped := run(7)
	if dropped == 0 || got == 0 {
		t.Fatalf("gray loss degenerate: delivered=%d dropped=%d", got, dropped)
	}
	if got+int(dropped) != 200 {
		t.Fatalf("accounting: delivered=%d dropped=%d, want sum 200", got, dropped)
	}
	got2, dropped2 := run(7)
	if got2 != got || dropped2 != dropped {
		t.Fatalf("gray loss not deterministic: %d/%d vs %d/%d", got, dropped, got2, dropped2)
	}
	got3, _ := run(8)
	if got3 == got {
		t.Log("different seed produced identical delivery count (possible, but suspicious)")
	}
}

// TestDomainsGrayWindowCloses: after For, the link is clean again and the
// previous hook (none here) is restored.
func TestDomainsGrayWindowCloses(t *testing.T) {
	s := sim.New(1)
	pool := packet.NewPool()
	k := &domSink{}
	l := netsim.NewLink(s, "g", 1e9, sim.Microsecond, k)
	l.Pool = pool
	plans, _ := ParseDomains("gray@1us,link=g,loss=1,for=10us")
	ds := NewDomains(plans, 1)
	ds.Schedule(s, listView{links: []*netsim.Link{l}})
	s.Run(2 * sim.Microsecond) // window open: loss=1 eats everything
	for i := 0; i < 5; i++ {
		l.Send(packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
			packet.ECT0, packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK}, 64))
	}
	s.Run(20 * sim.Microsecond)
	if l.Fault() != nil {
		t.Fatal("gray hook still installed after the window")
	}
	for i := 0; i < 10; i++ {
		l.Send(packet.BuildIn(pool, packet.MakeAddr(10, 0, 0, 1), packet.MakeAddr(10, 0, 0, 2),
			packet.ECT0, packet.TCPFields{SrcPort: 1, DstPort: 2, Flags: packet.FlagACK}, 64))
	}
	s.RunAll()
	if k.got != 10 {
		t.Fatalf("post-window delivery %d/10", k.got)
	}
	if l.Stats.DropsFault == 0 {
		t.Fatal("loss=1 window dropped nothing — schedule never fired")
	}
}

func TestDomainsSchedulePanicsOnNoMatch(t *testing.T) {
	s := sim.New(1)
	plans, _ := ParseDomains("link-down@1ms,link=missing")
	ds := NewDomains(plans, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for a pattern matching zero links")
		}
	}()
	ds.Schedule(s, listView{})
}

func TestDomainHelpMentionsEveryKind(t *testing.T) {
	h := DomainHelp()
	for _, k := range names(domainKinds) {
		if !strings.Contains(h, k) {
			t.Errorf("DomainHelp missing kind %q", k)
		}
	}
}

// TestUnreadKeysRejected: a key its kind or variant never reads is refused,
// and the error names who reads it.
func TestUnreadKeysRejected(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		parse    func(string) error
	}{
		{"link-down,link=x,count=5,loss=0.5", `link-down takes no key "count" (read by flap)`,
			func(s string) error { _, err := ParseDomains(s); return err }},
		{"switch-down,switch=s,link=x", `switch-down takes no key "link" (read by flap, gray, link-down)`,
			func(s string) error { _, err := ParseDomains(s); return err }},
		{"warm,age=5us", `warm takes no key "age" (read by stale)`,
			func(s string) error { _, err := ParseRestart(s); return err }},
	} {
		if err := tc.parse(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %v, want %q", tc.in, err, tc.want)
		}
	}
}
