package faults

import (
	"strings"
	"testing"
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
	for _, k := range DomainKinds() {
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
	seeds := helpExamples(RestartHelp(), "example:")
	if len(seeds) == 0 {
		f.Fatal("RestartHelp prints no example")
	}
	for _, s := range seeds {
		if _, err := ParseRestart(s); err != nil {
			f.Fatalf("RestartHelp example %q is rejected: %v", s, err)
		}
		f.Add(s)
	}
	for _, v := range RestartVariants() {
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
