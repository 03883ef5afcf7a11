package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzParseSpecs feeds ParseSpecs arbitrary config bytes, seeded with the
// catalog's own JSON. It must never panic, and what it accepts must be
// runnable as written: a topology of at least two hosts with no negative link
// rate, delay or buffer, positive windows and trial counts, a guest MSS,
// fan-ins that fit the topology, and an encoding that decodes back to the
// same spec.
func FuzzParseSpecs(f *testing.F) {
	all, err := json.Marshal(Catalog())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all)
	for _, s := range Catalog() {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// Values the structural checks once let through.
	const head, tail = `{"name":"x","topo":{"kind":"star","hosts":4},`, `"workloads":[{"kind":"incast","senders":2}]}`
	for _, field := range []string{`"trials":-1,`, `"warmup":"-5ms",`, `"measure":-1,`, `"mtu":10,`, `"min_rwnd_bytes":-1,`} {
		f.Add([]byte(head + field + tail))
	}
	f.Add([]byte(head + `"workloads":[{"kind":"incast","senders":9223372036854775807}]}`))
	for _, field := range []string{`"link_rate":-1`, `"link_delay":"-5us"`, `"buffer_bytes":-1`} {
		f.Add([]byte(`{"name":"x","topo":{"kind":"star","hosts":4,` + field + `},` + tail))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		specs, err := ParseSpecs(data)
		if err != nil {
			return
		}
		for _, s := range specs {
			checkRunnable(t, s.withDefaults())
			checkRunnable(t, s.ForSmoke())
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("accepted spec %q does not encode: %v", s.Name, err)
			}
			again, err := ParseSpecs(b)
			if err != nil {
				t.Fatalf("accepted spec %q re-encodes to a rejected one: %v\n%s", s.Name, err, b)
			}
			if b2, _ := json.Marshal(again[0]); !bytes.Equal(b, b2) {
				t.Fatalf("spec %q changes through an encode/decode round trip:\n%s\n%s", s.Name, b, b2)
			}
		}
	})
}

// checkRunnable asserts that an accepted spec, defaults applied, describes a
// run that can happen.
func checkRunnable(t *testing.T, s Spec) {
	t.Helper()
	hosts, err := s.hostCount()
	if err != nil || hosts < 2 {
		t.Fatalf("accepted spec %q has %d hosts (%v)", s.Name, hosts, err)
	}
	if s.Trials < 1 || s.Warmup <= 0 || s.Measure <= 0 || s.MTU <= 40 || s.MinRwndBytes < 0 {
		t.Fatalf("accepted spec %q: %d trials, warmup %v, measure %v, MTU %d, min rwnd %d",
			s.Name, s.Trials, s.Warmup, s.Measure, s.MTU, s.MinRwndBytes)
	}
	if s.Topo.LinkRate < 0 || s.Topo.LinkDelay < 0 || s.Topo.BufferBytes < 0 {
		t.Fatalf("accepted spec %q: link rate %d, link delay %v, buffer %d",
			s.Name, s.Topo.LinkRate, s.Topo.LinkDelay, s.Topo.BufferBytes)
	}
	for _, w := range s.Workloads {
		switch w.Kind {
		case "incast", "partagg", "flash-crowd":
			if w.Senders < 1 || w.Senders >= hosts {
				t.Fatalf("accepted spec %q: %s with %d senders on %d hosts", s.Name, w.Kind, w.Senders, hosts)
			}
		}
	}
}
