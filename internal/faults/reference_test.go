package faults

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"acdc/internal/sim"
)

// The three spec parsers as they stood before the shared grammar, kept as
// the reference FuzzSpecRoundTrip holds the reader to: for any text, both
// return the same value or both reject it. The bodies are the old ones with
// the names prefixed by ref; the registry lists they read are rebuilt here,
// and the domain kind comes from the FaultDomain the registry now holds.

func refNames() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func refRestartVariants() []string {
	out := make([]string, 0, len(restartVariants))
	for n := range restartVariants {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func refDomainKinds() []string {
	out := make([]string, 0, len(domainKinds))
	for n := range domainKinds {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func refParse(s string) (Profile, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Profile{}, nil
	}
	if p, ok := Lookup(s); ok {
		return p, nil
	}
	if !strings.Contains(s, "=") {
		if near := Nearest(s, refNames()); near != "" {
			return Profile{}, fmt.Errorf("faults: unknown profile %q (did you mean %q?)", s, near)
		}
		return Profile{}, fmt.Errorf("faults: unknown profile %q (have %s)", s, strings.Join(refNames(), ", "))
	}
	var p Profile
	for _, term := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return Profile{}, fmt.Errorf("faults: bad term %q (want key=value)", term)
		}
		k = strings.TrimSpace(k)
		v = strings.TrimSpace(v)
		switch k {
		case "jitter", "reorder-delay":
			d, err := time.ParseDuration(v)
			if err != nil || d < 0 {
				return Profile{}, fmt.Errorf("faults: bad duration %s=%q", k, v)
			}
			if k == "jitter" {
				p.Jitter = sim.Duration(d.Nanoseconds())
			} else {
				p.ReorderDelay = sim.Duration(d.Nanoseconds())
			}
		default:
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || !(f >= 0 && f <= 1) {
				return Profile{}, fmt.Errorf("faults: bad probability %s=%q (want [0,1])", k, v)
			}
			switch k {
			case "drop":
				p.Drop = f
			case "reorder":
				p.Reorder = f
			case "dup":
				p.Dup = f
			case "corrupt":
				p.Corrupt = f
			case "strip-options":
				p.StripOptions = f
			case "feedback-loss":
				p.DropFeedback = f
			default:
				return Profile{}, fmt.Errorf("faults: unknown key %q", k)
			}
		}
	}
	return p.withDefaults(), nil
}

func refParseRestart(s string) (RestartPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return RestartPlan{}, fmt.Errorf("restart: empty spec")
	}
	head, rest, hasOpts := strings.Cut(s, ",")
	name, at, hasAt := strings.Cut(strings.TrimSpace(head), "@")
	p, ok := restartVariants[strings.TrimSpace(name)]
	if !ok {
		return RestartPlan{}, fmt.Errorf("restart: unknown variant %q (have %s)",
			name, strings.Join(refRestartVariants(), ", "))
	}
	if hasAt {
		d, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil || d <= 0 {
			return RestartPlan{}, fmt.Errorf("restart: bad time %q", at)
		}
		p.At = sim.Duration(d.Nanoseconds())
	}
	ageSet := false
	if hasOpts {
		for _, term := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
			if !ok {
				return RestartPlan{}, fmt.Errorf("restart: bad term %q (want key=value)", term)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch k {
			case "down", "age", "every":
				d, err := time.ParseDuration(v)
				if err != nil || d < 0 {
					return RestartPlan{}, fmt.Errorf("restart: bad duration %s=%q", k, v)
				}
				switch k {
				case "down":
					p.Downtime = sim.Duration(d.Nanoseconds())
				case "age":
					p.StaleAge = sim.Duration(d.Nanoseconds())
					ageSet = true
				case "every":
					p.Every = sim.Duration(d.Nanoseconds())
				}
			case "host":
				h, err := strconv.Atoi(v)
				if err != nil || h < 0 {
					return RestartPlan{}, fmt.Errorf("restart: bad host index %q", v)
				}
				p.Hosts = append(p.Hosts, h)
			default:
				return RestartPlan{}, fmt.Errorf("restart: unknown key %q", k)
			}
		}
	}
	if p.Mode == RestartStale && ageSet && p.StaleAge == 0 {
		// An explicit age=0 would silently become the default; reject it.
		return RestartPlan{}, fmt.Errorf("restart: stale variant needs age > 0")
	}
	return p.withDefaults(), nil
}

func refParseDomains(s string) ([]FaultDomain, error) {
	var out []FaultDomain
	for _, spec := range strings.Split(s, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		d, err := refParseDomain(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fabric: empty spec")
	}
	return out, nil
}

func refParseDomain(spec string) (FaultDomain, error) {
	head, rest, hasOpts := strings.Cut(spec, ",")
	name, at, hasAt := strings.Cut(strings.TrimSpace(head), "@")
	name = strings.TrimSpace(name)
	kd, ok := domainKinds[name]
	kind := kd.Kind
	if !ok {
		msg := fmt.Sprintf("fabric: unknown kind %q (have %s)", name, strings.Join(refDomainKinds(), ", "))
		if near := Nearest(name, refDomainKinds()); near != "" {
			msg += fmt.Sprintf("; did you mean %q?", near)
		}
		return FaultDomain{}, fmt.Errorf("%s", msg)
	}
	d := FaultDomain{Kind: kind}
	if hasAt {
		v, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil || v <= 0 {
			return FaultDomain{}, fmt.Errorf("fabric: bad time %q", at)
		}
		d.At = sim.Duration(v.Nanoseconds())
	}
	if hasOpts {
		for _, term := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(term), "=")
			if !ok {
				return FaultDomain{}, fmt.Errorf("fabric: bad term %q (want key=value)", term)
			}
			k, v = strings.TrimSpace(k), strings.TrimSpace(v)
			switch k {
			case "link":
				d.Link = v
			case "switch":
				d.Switch = v
			case "for", "down", "up", "delay":
				dur, err := time.ParseDuration(v)
				if err != nil || dur < 0 {
					return FaultDomain{}, fmt.Errorf("fabric: bad duration %s=%q", k, v)
				}
				sd := sim.Duration(dur.Nanoseconds())
				switch k {
				case "for":
					d.For = sd
				case "down":
					d.Down = sd
				case "up":
					d.Up = sd
				case "delay":
					d.Delay = sd
				}
			case "count":
				n, err := strconv.Atoi(v)
				if err != nil || n <= 0 {
					return FaultDomain{}, fmt.Errorf("fabric: bad count %q", v)
				}
				d.Count = n
			case "loss":
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || !(f >= 0 && f <= 1) {
					return FaultDomain{}, fmt.Errorf("fabric: bad loss %q (want 0..1)", v)
				}
				d.Loss = f
			default:
				return FaultDomain{}, fmt.Errorf("fabric: unknown key %q", k)
			}
		}
	}
	switch kind {
	case DomainSwitchDown:
		if d.Switch == "" {
			return FaultDomain{}, fmt.Errorf("fabric: %s needs switch=<name>", kind)
		}
	default:
		if d.Link == "" {
			return FaultDomain{}, fmt.Errorf("fabric: %s needs link=<name|prefix*>", kind)
		}
	}
	return d.withDefaults(), nil
}
