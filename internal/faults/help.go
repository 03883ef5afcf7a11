package faults

import (
	"fmt"
	"strings"
)

// ProfilesHelp renders the built-in fault profiles as the `-faults list`
// output (topo.BindEnv), which is also the syntax of a scenario spec's
// Faults field.
func ProfilesHelp() string {
	var b strings.Builder
	b.WriteString("built-in fault profiles:\n")
	for _, name := range Names() {
		p, _ := Lookup(name)
		fmt.Fprintf(&b, "  %-14s %s\n", name, p.String())
	}
	b.WriteString("or a comma-separated k=v list: drop=0.01,reorder=0.02,jitter=50us,...\n")
	return b.String()
}

// RestartHelp renders the restart variants as the shared `-restart list`
// output (same convention as ProfilesHelp).
func RestartHelp() string {
	var b strings.Builder
	b.WriteString("vSwitch restart variants (mode[@time][,key=val...]):\n")
	for _, name := range RestartVariants() {
		p, _ := LookupRestart(name)
		fmt.Fprintf(&b, "  %-8s %s\n", name, p.String())
	}
	b.WriteString("keys: down=<dur> (outage window), age=<dur> (stale snapshot age),\n")
	b.WriteString("      every=<dur> (recur while flows remain), host=<idx> (repeatable)\n")
	b.WriteString("example: stale@1ms,age=500us,down=50us,host=0\n")
	return b.String()
}

// DomainHelp renders the fabric fault-domain syntax as the shared `-fabric
// list` output (same convention as ProfilesHelp/RestartHelp).
func DomainHelp() string {
	var b strings.Builder
	b.WriteString("fabric fault domains (kind[@time][,key=val...]; join several with ';'):\n")
	b.WriteString("  link-down    take matching links down for `for` (default 100us)\n")
	b.WriteString("  switch-down  take every link touching switch=<name> down for `for`\n")
	b.WriteString("  flap         cycle matching links: down=<dur>, up=<dur>, count=<n>\n")
	b.WriteString("  gray         link stays up, silently drops loss=<frac> and delays delay=<dur>\n")
	b.WriteString("keys: link=<name|prefix*>, switch=<name>, for=<dur>, down=<dur>, up=<dur>,\n")
	b.WriteString("      count=<n>, loss=<0..1>, delay=<dur>\n")
	b.WriteString("examples:\n")
	b.WriteString("  switch-down@5ms,switch=p1-tor0,for=5ms\n")
	b.WriteString("  flap@1ms,link=p0-agg0>core0,down=500us,up=2ms,count=5\n")
	b.WriteString("  gray@1ms,link=core1>p2-agg0,loss=0.02;link-down@4ms,link=p3-agg1>core3\n")
	return b.String()
}

// Nearest returns the candidate most plausibly meant by a mistyped name: the
// smallest edit distance at most 2, with prefix matches accepted at any
// length ("heavy" → "heavy-loss"). It returns "" when nothing is close —
// suggesting a wild guess is worse than listing the catalog. Shared by every
// unknown-name error path (fault profiles, scenario selection) so typo
// diagnostics look the same across binaries.
func Nearest(name string, candidates []string) string {
	best, bestDist := "", 3
	for _, c := range candidates {
		if strings.HasPrefix(c, name) && name != "" {
			return c
		}
		if d := editDistance(name, c); d < bestDist {
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
