// Command acdctrace prints an annotated packet-level trace of a small
// transfer, showing exactly what the AC/DC datapath does to each packet:
// ECT marking on egress, PACK options appearing on ACKs, ECN stripping and
// RWND rewriting on ingress. Useful for understanding the mechanism and for
// debugging datapath changes.
//
// Usage:
//
//	acdctrace [-bytes N] [-noacdc] [-max M]
package main

import (
	"flag"
	"fmt"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

var (
	nBytes = flag.Int64("bytes", 30_000, "bytes to transfer")
	noACDC = flag.Bool("noacdc", false, "trace without the AC/DC module")
	maxPkt = flag.Int("max", 60, "maximum packets to print")
)

func main() {
	flag.Parse()

	guest := tcpstack.DefaultConfig()
	o := topo.Options{
		Guest: guest,
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
	}
	if !*noACDC {
		ac := core.DefaultConfig()
		o.ACDC = &ac
	}
	net := topo.Star(2, o)

	printed := 0
	annotate := func(host int, dir string, before, after *packet.Packet) {
		if printed >= *maxPkt {
			return
		}
		printed++
		notes := ""
		if after == nil {
			notes = " [DROPPED by vSwitch]"
			after = before
		} else {
			bi, ai := before.IP(), after.IP()
			if bi.ECN() != ai.ECN() {
				notes += fmt.Sprintf(" [ECN %v→%v]", bi.ECN(), ai.ECN())
			}
			bt, at := before.TCP(), after.TCP()
			if bt.Window() != at.Window() {
				notes += fmt.Sprintf(" [RWND %d→%d]", bt.Window(), at.Window())
			}
			bp := packet.FindOption(bt.Options(), packet.OptPACK) != nil
			ap := packet.FindOption(at.Options(), packet.OptPACK) != nil
			if !bp && ap {
				d, _ := packet.ParsePACK(packet.FindOption(at.Options(), packet.OptPACK))
				notes += fmt.Sprintf(" [+PACK total=%d marked=%d]", d.TotalBytes, d.MarkedBytes)
			}
			if bp && !ap {
				notes += " [PACK stripped]"
			}
		}
		fmt.Printf("%10v  h%d %s  %v%s\n", net.Sim.Now(), host, dir, after, notes)
	}

	// Interpose around the (possibly AC/DC) hooks on both hosts.
	for i := range net.Hosts {
		i := i
		h := net.Hosts[i]
		innerE, innerI := h.Egress, h.Ingress
		h.Egress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
			before := p.Clone()
			out, extra := p, (*packet.Packet)(nil)
			if innerE != nil {
				out, extra = innerE(p)
			}
			if out == nil && extra == nil {
				annotate(i, "⇧egress ", before, nil)
				return nil, nil
			}
			annotate(i, "⇧egress ", before, out)
			if extra != nil {
				fmt.Printf("%10v  h%d ⇧egress  %v [FACK generated]\n", net.Sim.Now(), i, extra)
			}
			return out, extra
		}
		h.Ingress = func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
			before := p.Clone()
			out, extra := p, (*packet.Packet)(nil)
			if innerI != nil {
				out, extra = innerI(p)
			}
			if out == nil && extra == nil {
				annotate(i, "⇩ingress", before, nil)
				return nil, nil
			}
			annotate(i, "⇩ingress", before, out)
			return out, extra
		}
	}

	m := workload.NewManager(net)
	ms := m.Open(0, 1)
	done := false
	ms.SendMessage(*nBytes, func(fct sim.Duration) {
		done = true
		fmt.Printf("\n-- message of %d bytes completed in %v --\n", *nBytes, fct)
	})
	net.Sim.RunFor(sim.Second)
	if !done {
		fmt.Println("\n-- transfer incomplete (raise -bytes budget or check trace) --")
	}
	if !*noACDC {
		v := net.ACDC[0]
		fmt.Printf("\nAC/DC @h0: rewrites=%d packs-consumed=%d; @h1: packs-attached=%d\n",
			v.Stats().RwndRewrites, v.Stats().PacksConsumed, net.ACDC[1].Stats().PacksAttached)
	}
}
