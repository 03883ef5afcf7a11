package faults

// The run-environment grammar: a restart plan or a fabric fault domain is
// name[@time][,key=value…], fabric domains join with ';', and a fault
// profile is a registered name alone or a bare key=value list. Each type
// declares its keys once; the parser, String and the `list` help text all
// read that declaration. A key's value kind follows from its field's type:
// a time.ParseDuration duration ≥ 0 (@time > 0), a probability in [0,1], a
// count > 0, a host index ≥ 0 (the key may repeat) or a name.

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"time"

	"acdc/internal/sim"
)

// key declares one key=value term: its name, the field it sets (see set for
// the field types) and one line of help.
type key[T any] struct {
	name  string
	field func(*T) any
	help  string
}

// grammar is one spec language: its error prefix, what a spec's name names,
// the names with each one's starting value, the field @time sets, the keys,
// and the keys each name reads (nil: every name reads every key). A key its
// name does not read is rejected, as it would never act.
type grammar[T any] struct {
	what, noun string
	heads      map[string]T
	at         func(*T) *sim.Duration
	keys       []key[T]
	reads      map[string][]string
}

// read parses one spec, name[@time][,key=value…], and returns the keys it
// set. Defaults are the caller's.
func (g *grammar[T]) read(spec string) (T, []string, error) {
	head, rest, hasKeys := strings.Cut(strings.TrimSpace(spec), ",")
	name, at, hasAt := strings.Cut(strings.TrimSpace(head), "@")
	name = strings.TrimSpace(name)
	p, ok := g.heads[name]
	if !ok {
		return p, nil, g.unknown(g.noun, name, names(g.heads))
	}
	if hasAt {
		d, err := time.ParseDuration(strings.TrimSpace(at))
		if err != nil || d <= 0 {
			return p, nil, fmt.Errorf("%s: bad time %q (want a duration > 0)", g.what, at)
		}
		*g.at(&p) = sim.Duration(d.Nanoseconds())
	}
	if !hasKeys {
		return p, nil, nil
	}
	given, err := g.terms(&p, name, rest)
	return p, given, err
}

// terms sets p's fields from a comma-separated key=value list, each a key
// head reads, and returns the keys in the order given.
func (g *grammar[T]) terms(p *T, head, list string) ([]string, error) {
	var given []string
	for _, term := range strings.Split(list, ",") {
		name, v, ok := strings.Cut(strings.TrimSpace(term), "=")
		if !ok {
			return nil, fmt.Errorf("%s: bad term %q (want key=value)", g.what, term)
		}
		name, v = strings.TrimSpace(name), strings.TrimSpace(v)
		i := slices.IndexFunc(g.keys, func(k key[T]) bool { return k.name == name })
		if i < 0 {
			var have []string
			for _, k := range g.keys {
				have = append(have, k.name)
			}
			return nil, g.unknown("key", name, have)
		}
		if g.reads != nil && !slices.Contains(g.reads[head], name) {
			return nil, fmt.Errorf("%s: %s takes no key %q (read by %s)", g.what, head, name, strings.Join(g.readers(name), ", "))
		}
		if want, ok := g.keys[i].set(p, v); !ok {
			return nil, fmt.Errorf("%s: bad value %s=%q (want %s)", g.what, name, v, want)
		}
		given = append(given, name)
	}
	return given, nil
}

// set parses v into the field k declares and reports whether it is of the
// field's kind, which want describes as help shows it.
func (k key[T]) set(p *T, v string) (want string, ok bool) {
	switch f := k.field(p).(type) {
	case *sim.Duration:
		d, err := time.ParseDuration(v)
		*f, ok, want = sim.Duration(d.Nanoseconds()), err == nil && d >= 0, "<dur ≥ 0>"
	case *float64:
		x, err := strconv.ParseFloat(v, 64)
		*f, ok, want = x, err == nil && x >= 0 && x <= 1, "<0..1>"
	case *int:
		n, err := strconv.Atoi(v)
		*f, ok, want = n, err == nil && n > 0, "<count ≥ 1>"
	case *[]int:
		n, err := strconv.Atoi(v)
		*f, ok, want = append(*f, n), err == nil && n >= 0, "<host ≥ 0>"
	case *string:
		*f, ok, want = v, true, "<name>"
	}
	return want, ok
}

// render writes p as read parses it: head, @time when set, then each key
// whose field is not zero, in declaration order (a host key once per host).
func (g *grammar[T]) render(head string, p T) string {
	terms := []string{head}
	if g.at != nil && *g.at(&p) != 0 {
		terms[0] += "@" + formatDuration(*g.at(&p))
	}
	for _, k := range g.keys {
		v := reflect.ValueOf(k.field(&p)).Elem()
		if v.IsZero() {
			continue
		}
		switch f := k.field(&p).(type) {
		case *sim.Duration:
			terms = append(terms, k.name+"="+formatDuration(*f))
		case *[]int:
			for _, n := range *f {
				terms = append(terms, fmt.Sprintf("%s=%d", k.name, n))
			}
		default:
			terms = append(terms, fmt.Sprintf("%s=%v", k.name, v))
		}
	}
	if head == "" {
		terms = terms[1:]
	}
	return strings.Join(terms, ",")
}

// help renders a `list` text: the title, each name with show's text for
// it, each key with its value kind, its help and the names that read it
// when not every name does, then the examples.
func (g *grammar[T]) help(title string, show func(name string) string, examples ...string) string {
	var b strings.Builder
	b.WriteString(title + ":\n")
	for _, n := range names(g.heads) {
		b.WriteString(strings.TrimRight(fmt.Sprintf("  %-14s %s", n, show(n)), " ") + "\n")
	}
	b.WriteString("keys:\n")
	for _, k := range g.keys {
		want, _ := k.set(new(T), "") // a fresh value only names the kind
		text := k.help
		if readers := g.readers(k.name); len(readers) < len(g.reads) {
			text += " [" + strings.Join(readers, ", ") + "]"
		}
		fmt.Fprintf(&b, "  %-24s %s\n", k.name+"="+want, text)
	}
	b.WriteString("examples:\n  " + strings.Join(examples, "\n  ") + "\n")
	return b.String()
}

// readers returns the names that read key, sorted.
func (g *grammar[T]) readers(key string) []string {
	var out []string
	for _, h := range names(g.reads) {
		if slices.Contains(g.reads[h], key) {
			out = append(out, h)
		}
	}
	return out
}

// unknown reports a name that is not among have, suggesting the nearest.
func (g *grammar[T]) unknown(noun, name string, have []string) error {
	if near := Nearest(name, have); near != "" {
		return fmt.Errorf("%s: unknown %s %q (did you mean %q?)", g.what, noun, name, near)
	}
	return fmt.Errorf("%s: unknown %s %q (have %s)", g.what, noun, name, strings.Join(have, ", "))
}

// names returns a registry's names, sorted.
func names[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for n := range m {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// formatDuration renders d as sim.Time does ("1.000ms") where that reads
// back exactly, and in time.Duration's exact form otherwise.
func formatDuration(d sim.Duration) string {
	if v, err := time.ParseDuration(d.String()); err == nil && sim.Duration(v) == d {
		return d.String()
	}
	return time.Duration(d).String()
}

// Nearest returns the candidate most plausibly meant by a mistyped name: the
// smallest edit distance at most 2 that keeps a letter of the candidate, with
// prefix matches accepted at any length ("heavy" → "heavy-loss"). It returns
// "" when nothing is close — suggesting a wild guess is worse than listing
// the catalog. Shared by every unknown-name error path (run-environment
// specs, scenario selection) so typo diagnostics look the same everywhere.
func Nearest(name string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if strings.HasPrefix(c, name) && name != "" {
			return c
		}
		if d := editDistance(name, c); d < bestDist && d < len(c) {
			best, bestDist = c, d
		}
	}
	return best
}

// editDistance is the Levenshtein distance between a and b.
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
