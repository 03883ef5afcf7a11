package topo

// Multi-path fabric builders: the k-ary fat-tree (Al-Fares et al.) and the
// two-tier leaf-spine, both forwarding over seeded ECMP at every switch with
// equal-cost uplinks. These are the topologies where the fabric fault
// domains (Env.Fabric) become interesting: a downed uplink re-hashes
// surviving flows onto live paths instead of severing the only route.

import (
	"fmt"

	"acdc/internal/netsim"
)

// FatTreeConfig parameterizes the k-ary fat-tree.
type FatTreeConfig struct {
	// K is the switch radix: K pods, each with K/2 ToRs and K/2 aggregation
	// switches, and (K/2)² cores. Must be even and ≥ 2.
	K int
	// HostsPerTor is the number of hosts under each ToR (default K/2, the
	// canonical rearrangeably-nonblocking fat-tree). Values above K/2
	// oversubscribe the ToR uplinks by HostsPerTor/(K/2):1 — the common
	// datacenter cost/performance trade.
	HostsPerTor int
}

func (c FatTreeConfig) withDefaults() FatTreeConfig {
	if c.K == 0 {
		c.K = 4
	}
	if c.K < 2 || c.K%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree K must be even and >= 2, got %d", c.K))
	}
	if c.HostsPerTor == 0 {
		c.HostsPerTor = c.K / 2
	}
	return c
}

// Hosts returns the total host count the config builds.
func (c FatTreeConfig) Hosts() int {
	c = c.withDefaults()
	return c.K * (c.K / 2) * c.HostsPerTor
}

// HostIndex returns the host index for (pod, tor, slot) — hosts are added
// pod-major, then ToR, then slot.
func (c FatTreeConfig) HostIndex(pod, tor, slot int) int {
	c = c.withDefaults()
	return (pod*(c.K/2)+tor)*c.HostsPerTor + slot
}

// FatTree builds the k-ary fat-tree. Switch names are "p{pod}-tor{t}",
// "p{pod}-agg{a}", and "core{c}"; trunk links are named "a>b" by the
// switches they connect (e.g. "p0-tor1>p0-agg0", "p2-agg1>core3"), the
// addresses fault domains target.
//
// Routing is static: exact down-routes everywhere a single path exists
// (core→pod, agg→ToR, ToR→host) and a default ECMP group up (ToR→aggs,
// agg→its core group), hashed per flow with a per-switch seed derived from
// Options.Seed — distinct per switch so consecutive tiers don't polarize
// onto one path, deterministic per seed so replays take identical paths.
// There is no routing protocol: a fault on a link the ECMP group can route
// around fails over; a fault that severs the only down-path blackholes
// (counted at the switch) until the link returns.
func FatTree(cfg FatTreeConfig, o Options) *Net {
	cfg = cfg.withDefaults()
	k, half := cfg.K, cfg.K/2
	net := newNet(o)
	net.fabric = true

	core := make([]*switchRef, half*half)
	for c := 0; c < half*half; c++ {
		core[c] = &switchRef{sw: net.addSwitch(fmt.Sprintf("core%d", c))}
	}
	tor := make([][]*switchRef, k)
	agg := make([][]*switchRef, k)
	for p := 0; p < k; p++ {
		tor[p] = make([]*switchRef, half)
		agg[p] = make([]*switchRef, half)
		for i := 0; i < half; i++ {
			tor[p][i] = &switchRef{sw: net.addSwitch(fmt.Sprintf("p%d-tor%d", p, i))}
		}
		for i := 0; i < half; i++ {
			agg[p][i] = &switchRef{sw: net.addSwitch(fmt.Sprintf("p%d-agg%d", p, i))}
		}
	}

	// Pod wiring: every ToR to every agg in its pod.
	aggDownToTor := make([][][]int, k) // [pod][agg][tor] = agg's port to that ToR
	for p := 0; p < k; p++ {
		aggDownToTor[p] = make([][]int, half)
		for a := 0; a < half; a++ {
			aggDownToTor[p][a] = make([]int, half)
		}
		for t := 0; t < half; t++ {
			for a := 0; a < half; a++ {
				up, down := net.connectSwitches(tor[p][t].sw, agg[p][a].sw)
				tor[p][t].uplinks = append(tor[p][t].uplinks, up)
				aggDownToTor[p][a][t] = down
			}
		}
	}

	// Core wiring: agg a of every pod connects to core group a — cores
	// [a*half, (a+1)*half).
	coreDownToPod := make([][]int, half*half) // [core][pod] = core's port to that pod's agg
	for c := range coreDownToPod {
		coreDownToPod[c] = make([]int, k)
	}
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for j := 0; j < half; j++ {
				c := a*half + j
				up, down := net.connectSwitches(agg[p][a].sw, core[c].sw)
				agg[p][a].uplinks = append(agg[p][a].uplinks, up)
				coreDownToPod[c][p] = down
			}
		}
	}

	// Hosts, pod-major. addHost installs the ToR's exact down-route.
	for p := 0; p < k; p++ {
		for t := 0; t < half; t++ {
			for s := 0; s < cfg.HostsPerTor; s++ {
				idx := cfg.HostIndex(p, t, s)
				net.addHost(tor[p][t].sw, hostAddr(idx), fmt.Sprintf("h%d", idx))
			}
		}
	}

	// Down-routes and ECMP groups. Exact routes win over ECMP inside the
	// switch, so each tier only needs its own tier's reachability.
	for p := 0; p < k; p++ {
		for t := 0; t < half; t++ {
			tor[p][t].sw.SetDefaultEcmp(tor[p][t].uplinks...)
		}
		for a := 0; a < half; a++ {
			for t := 0; t < half; t++ {
				for s := 0; s < cfg.HostsPerTor; s++ {
					addr := hostAddr(cfg.HostIndex(p, t, s))
					agg[p][a].sw.AddRoute(addr, aggDownToTor[p][a][t])
				}
			}
			agg[p][a].sw.SetDefaultEcmp(agg[p][a].uplinks...)
		}
	}
	for c := 0; c < half*half; c++ {
		for p := 0; p < k; p++ {
			for t := 0; t < half; t++ {
				for s := 0; s < cfg.HostsPerTor; s++ {
					addr := hostAddr(cfg.HostIndex(p, t, s))
					core[c].sw.AddRoute(addr, coreDownToPod[c][p])
				}
			}
		}
	}

	net.seedEcmp()
	net.armEnv()
	return net
}

// switchRef pairs a switch with its accumulated uplink port indices.
type switchRef struct {
	sw      *netsim.Switch
	uplinks []int
}

// LeafSpine builds a two-tier Clos: `leaves` ToRs each hosting
// hostsPerLeaf hosts, fully meshed to `spines` spine switches. Leaves ECMP
// over every spine; spines hold exact down-routes. Names: "leaf{i}",
// "spine{j}", hosts "h{idx}" with idx = leaf*hostsPerLeaf + slot.
func LeafSpine(leaves, spines, hostsPerLeaf int, o Options) *Net {
	if leaves < 1 || spines < 1 || hostsPerLeaf < 1 {
		panic(fmt.Sprintf("topo: leaf-spine needs leaves/spines/hostsPerLeaf >= 1, got %d/%d/%d",
			leaves, spines, hostsPerLeaf))
	}
	net := newNet(o)
	net.fabric = true
	leaf := make([]*switchRef, leaves)
	for i := range leaf {
		leaf[i] = &switchRef{sw: net.addSwitch(fmt.Sprintf("leaf%d", i))}
	}
	spine := make([]*switchRef, spines)
	for j := range spine {
		spine[j] = &switchRef{sw: net.addSwitch(fmt.Sprintf("spine%d", j))}
	}
	spineDownToLeaf := make([][]int, spines)
	for j := range spineDownToLeaf {
		spineDownToLeaf[j] = make([]int, leaves)
	}
	for i := 0; i < leaves; i++ {
		for j := 0; j < spines; j++ {
			up, down := net.connectSwitches(leaf[i].sw, spine[j].sw)
			leaf[i].uplinks = append(leaf[i].uplinks, up)
			spineDownToLeaf[j][i] = down
		}
	}
	for i := 0; i < leaves; i++ {
		for s := 0; s < hostsPerLeaf; s++ {
			idx := i*hostsPerLeaf + s
			net.addHost(leaf[i].sw, hostAddr(idx), fmt.Sprintf("h%d", idx))
		}
		leaf[i].sw.SetDefaultEcmp(leaf[i].uplinks...)
	}
	for j := 0; j < spines; j++ {
		for i := 0; i < leaves; i++ {
			for s := 0; s < hostsPerLeaf; s++ {
				spine[j].sw.AddRoute(hostAddr(i*hostsPerLeaf+s), spineDownToLeaf[j][i])
			}
		}
	}
	net.seedEcmp()
	net.armEnv()
	return net
}

// seedEcmp gives every switch a distinct hash seed derived from the run
// seed: same run seed ⇒ identical path choices (replay), distinct per
// switch ⇒ no hash polarization between tiers (a ToR and the agg above it
// must not always agree on the low bits).
func (n *Net) seedEcmp() {
	for i, sw := range n.Switches {
		sw.EcmpSeed = uint64(n.Opts.Seed)*0x9e3779b97f4a7c15 + uint64(i)
	}
}
