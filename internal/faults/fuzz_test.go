package faults

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The -fabric and -restart flag values reach ParseDomains and ParseRestart
// straight from a command line or a scenario file: whatever the text, the
// parser accepts or rejects it and never panics, and what it accepts renders.
// The seeds are the examples the flag help prints, which must all be accepted.

// helpExamples returns the lines of a help text after the one that starts
// with marker, up to the end; the marker line's own remainder comes first.
func helpExamples(help, marker string) []string {
	_, after, _ := strings.Cut(help, marker)
	var out []string
	for _, line := range strings.Split(after, "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

func FuzzParseDomains(f *testing.F) {
	seeds := helpExamples(DomainHelp(), "examples:")
	if len(seeds) == 0 {
		f.Fatal("DomainHelp prints no examples")
	}
	for _, s := range seeds {
		if _, err := ParseDomains(s); err != nil {
			f.Fatalf("DomainHelp example %q is rejected: %v", s, err)
		}
		f.Add(s)
	}
	for _, k := range names(domainKinds) {
		f.Add(k)
	}
	f.Add("gray@1ms,loss=1e-400;;flap,count=9223372036854775807")
	f.Fuzz(func(t *testing.T, s string) {
		ds, err := ParseDomains(s)
		if err != nil {
			if ds != nil {
				t.Fatalf("ParseDomains(%q) returned domains with error %v", s, err)
			}
			return
		}
		if len(ds) == 0 {
			t.Fatalf("ParseDomains(%q) accepted an empty plan", s)
		}
		for _, d := range ds {
			if d.String() == "" {
				t.Fatalf("ParseDomains(%q): a domain renders empty", s)
			}
		}
	})
}

func FuzzParseRestart(f *testing.F) {
	seeds := helpExamples(RestartHelp(), "examples:")
	if len(seeds) == 0 {
		f.Fatal("RestartHelp prints no examples")
	}
	for _, s := range seeds {
		if _, err := ParseRestart(s); err != nil {
			f.Fatalf("RestartHelp example %q is rejected: %v", s, err)
		}
		f.Add(s)
	}
	for _, v := range names(restartVariants) {
		f.Add(v)
	}
	f.Add("warm@1ms,host=0,host=3,down=50us,every=2ms")
	f.Add("stale,age=0")
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParseRestart(s)
		if err != nil {
			return
		}
		if p.String() == "" {
			t.Fatalf("ParseRestart(%q): the plan renders empty", s)
		}
		for _, h := range p.Hosts {
			if h < 0 || !p.AppliesTo(h) {
				t.Fatalf("ParseRestart(%q): host %d accepted but not selected", s, h)
			}
		}
	})
}

// matchesReference parses s with parse and with the reference parser ref
// (reference_test.go) and fails unless both reject it, or both accept it with
// equal values. An accepted value must also read back from its rendering.
func matchesReference[T any](t *testing.T, what, s string, parse, ref func(string) (T, error), render func(T) string) {
	t.Helper()
	got, err := parse(s)
	want, refErr := ref(s)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s(%q): error %v, reference error %v", what, s, err, refErr)
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s(%q) = %+v, reference %+v", what, s, got, want)
	}
	if back, err := parse(render(got)); err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("%s(%q) renders %q, which reads back as %+v, %v", what, s, render(got), back, err)
	}
}

// joinDomains renders a fabric plan as ParseDomains reads it.
func joinDomains(ds []FaultDomain) string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return strings.Join(out, ";")
}

// explicitZero reports whether s sets a key that a domain kind defaults (for,
// down, up, loss) to zero.
func explicitZero(s string) bool {
	for _, term := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ';' }) {
		k, v, _ := strings.Cut(term, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		switch k {
		case "for", "down", "up":
			if d, err := time.ParseDuration(v); err == nil && d == 0 {
				return true
			}
		case "loss":
			if x, err := strconv.ParseFloat(v, 64); err == nil && x == 0 {
				return true
			}
		}
	}
	return false
}

// isZeroRejection reports whether err is ParseDomains' rejection of a zero the
// domain's kind cannot run with ("fabric: flap needs down > 0").
func isZeroRejection(err error) bool {
	return strings.Contains(err.Error(), " needs ") && strings.HasSuffix(err.Error(), " > 0")
}

// namesUnreadKey reports whether s, one spec or several joined by ';', gives
// a name a key that reads says the name does not read.
func namesUnreadKey(s string, reads map[string][]string) bool {
	for _, spec := range strings.Split(s, ";") {
		terms := strings.Split(spec, ",")
		head, _, _ := strings.Cut(terms[0], "@")
		keys, ok := reads[strings.TrimSpace(head)]
		for _, term := range terms[1:] {
			k, _, _ := strings.Cut(term, "=")
			if ok && !slices.Contains(keys, strings.TrimSpace(k)) {
				return true
			}
		}
	}
	return false
}

// FuzzSpecRoundTrip: for any text, Parse, ParseRestart and ParseDomains
// accept what the parsers they replaced accepted, with the same value, and
// reject the rest; and what they accept, String renders in a form they read
// back to the same value. Two exceptions. The reference replaced an explicit
// zero with its kind's default, where ParseDomains keeps it or, when the kind
// cannot run with it, rejects the spec. And the reference took every key for
// every name, where ParseRestart and ParseDomains reject a key the name never
// reads. So a spec only the reference accepts must name a key its name does
// not read or be rejected for an explicit zero, and nothing else. The seeds are
// every word of the three `list` texts, the forms the old String printed,
// edge cases of each kind and the scenario catalog's fabric plans.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, help := range []string{ProfilesHelp(), RestartHelp(), DomainHelp()} {
		for _, word := range strings.Fields(help) {
			f.Add(word)
		}
	}
	for _, s := range []string{
		"", ";", " warm @ 2ms , down = 1us ", "warm,", "stale,age=0", "stale,age=0,age=5us",
		"warm,age=0", "stale@1.000ms(age=100.000us)", "loss(drop=0.01)", "custom(none)",
		"cold@200.000us(down=50.000us,every=2.000ms,hosts=0+3)", "wram", "los", "grya,link=x",
		"drop=-0,jitter=1.2345678ms,reorder-delay=3ns", "drop=0x1p-3,dup=1e-400",
		"jitter=2562047h47m16.854775807s", "warm@1ms,host=+3,host=0,every=1h",
		"link-down,link=a=b@c,count=2", "gray,link=x,delay=10us", "gray,link=x,loss=0,for=0",
		"switch-down@5ms,switch=t,link=;flap,link=p*,down=0,up=0", "flap,link=x,count=007",
		"switch-down@25ms,switch=p3-tor1,for=5ms;flap@15ms,link=p0-agg0>core0,down=300us,up=2ms,count=3",
		"switch-down@10ms,switch=p3-tor1,for=2ms;flap@6ms,link=p0-agg0>core0,down=200us,up=1ms,count=3",
		"gray@10ms,link=core0>*,loss=0.02,for=35ms", "gray@5ms,link=core0>*,loss=0.02,for=8ms",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		matchesReference(t, "Parse", s, Parse, refParse, Profile.String)
		if _, err := ParseRestart(s); err == nil || !namesUnreadKey(s, restartGrammar.reads) {
			matchesReference(t, "ParseRestart", s, ParseRestart, refParseRestart, RestartPlan.String)
		}
		if _, err := ParseDomains(s); err != nil && (isZeroRejection(err) && explicitZero(s) || namesUnreadKey(s, domainGrammar.reads)) {
			return
		}
		matchesReference(t, "ParseDomains", s, ParseDomains, refParseDomains, joinDomains)
	})
}

// TestStringRoundTrip: every registered profile, under its name and as its
// key list, every restart variant and every domain kind with its defaults
// reads back from its String as itself.
func TestStringRoundTrip(t *testing.T) {
	for _, name := range names(profiles) {
		p, _ := Lookup(name)
		for _, q := range []Profile{p, {Drop: p.Drop, Reorder: p.Reorder, ReorderDelay: p.ReorderDelay,
			Dup: p.Dup, Jitter: p.Jitter, Corrupt: p.Corrupt, StripOptions: p.StripOptions, DropFeedback: p.DropFeedback}} {
			if back, err := Parse(q.String()); err != nil || back != q {
				t.Errorf("profile %+v renders %q, which reads back as %+v, %v", q, q.String(), back, err)
			}
		}
	}
	for _, name := range names(restartVariants) {
		p, _ := LookupRestart(name)
		if back, err := ParseRestart(p.String()); err != nil || !reflect.DeepEqual(back, p) {
			t.Errorf("restart %+v renders %q, which reads back as %+v, %v", p, p.String(), back, err)
		}
	}
	for _, name := range names(domainKinds) {
		d := domainKinds[name]
		if d.Kind == DomainSwitchDown {
			d.Switch = "p1-tor0"
		} else {
			d.Link = "p0-agg0>*"
		}
		d = d.withDefaults()
		if back, err := ParseDomains(d.String()); err != nil || len(back) != 1 || back[0] != d {
			t.Errorf("domain %+v renders %q, which reads back as %+v, %v", d, d.String(), back, err)
		}
	}
}
