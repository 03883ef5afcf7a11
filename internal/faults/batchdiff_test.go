// Chaos burst differential: a burst of packets queued at a host before the
// simulator delivers them must come out of the vSwitch exactly as if each
// packet had been handed to the datapath on its own. This is the ordering
// the per-packet datapath now commits to: tcpstack's flushBurst loops
// Host.Output over a whole window, and a zero-serialization link delivers
// each packet by its own event. Each catalog profile drives a real dumbbell
// run with every vSwitch input recorded in arrival order; the recorded
// per-host streams are then replayed into fresh vSwitches twice — straight
// into EgressPath/IngressPath one packet at a time, and through
// Host.Output and an ingress link into Host.HandlePacket with several burst
// splits queued before the simulator runs — and every observable (bytes on
// the wire and into the guest, drops, final stats, table size, audit event
// stream) must agree. Runs under -race in CI alongside the chaos suite.
package faults_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

const (
	bdiffPairs = 2
	bdiffBulk  = 512 << 10
	bdiffBound = sim.Second
	// bdiffRate makes every replay link's serialization time round to 0, so
	// the replay clock never leaves 0 and timers cannot tell the two
	// replays apart.
	bdiffRate = int64(1) << 62
)

// bdiffStep is one packet as it entered a vSwitch hook: direction plus a
// clone of the wire bytes taken before the datapath mutated them.
type bdiffStep struct {
	egress bool
	buf    []byte
}

// recordStreams runs the bulk workload under prof on a dumbbell and returns
// the in-order vSwitch input stream of each host. Faults act on the links,
// so the recorded streams carry whatever the profile did to the traffic —
// drops, dups, reordering, corrupted headers, stripped options.
func recordStreams(prof *faults.Profile, seed int64) [][]bdiffStep {
	net := topo.Dumbbell(bdiffPairs, chaosOptions(prof, seed))
	streams := make([][]bdiffStep, len(net.Hosts))
	for i, h := range net.Hosts {
		i := i
		wrap := func(egress bool, orig netsim.PathHook) netsim.PathHook {
			if orig == nil {
				return nil
			}
			return func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
				streams[i] = append(streams[i], bdiffStep{
					egress: egress,
					buf:    append([]byte(nil), p.Buf...),
				})
				return orig(p)
			}
		}
		h.Egress = wrap(true, h.Egress)
		h.Ingress = wrap(false, h.Ingress)
	}
	m := workload.NewManager(net)
	for i := 0; i < bdiffPairs; i++ {
		m.Open(i, bdiffPairs+i).SendBulk(bdiffBulk)
	}
	net.Sim.RunFor(bdiffBound)
	return streams
}

// bdiffAuditor records every audit callback as a formatted line so the two
// replays can be compared event-for-event. All event structs are plain values.
type bdiffAuditor struct {
	log []string
}

func (a *bdiffAuditor) PacketEvent(v *core.VSwitch, dir core.AuditDir, pre core.PacketPre, out, extra *packet.Packet, outIsInput bool) {
	var ob, eb []byte
	if out != nil {
		ob = out.Buf
	}
	if extra != nil {
		eb = extra.Buf
	}
	a.log = append(a.log, fmt.Sprintf("pkt %v pre=%+v out=%x extra=%x in=%v", dir, pre, ob, eb, outIsInput))
}
func (a *bdiffAuditor) AckEvent(v *core.VSwitch, e core.AckEvent) {
	a.log = append(a.log, fmt.Sprintf("ack %+v", e))
}
func (a *bdiffAuditor) CutEvent(v *core.VSwitch, e core.CutEvent) {
	a.log = append(a.log, fmt.Sprintf("cut %+v", e))
}
func (a *bdiffAuditor) PoliceEvent(v *core.VSwitch, e core.PoliceEvent) {
	a.log = append(a.log, fmt.Sprintf("pol %+v", e))
}

// bdiffReplay is a standalone replay host: a vSwitch with the chaos suite's
// datapath config (bounded table, so pressure eviction is in play), a NIC
// whose far end records what reached the wire, a guest Demux that records
// what reached the stack, and an ingress link that feeds the host.
type bdiffReplay struct {
	s      *sim.Simulator
	host   *netsim.Host
	v      *core.VSwitch
	aud    *bdiffAuditor
	feed   *netsim.Link
	wire   [][]byte
	guest  [][]byte
	egDrop int64
	inDrop int64
}

func newBdiffReplay() *bdiffReplay {
	r := &bdiffReplay{s: sim.New(7), aud: &bdiffAuditor{}}
	r.host = netsim.NewHost(r.s, "h", packet.MakeAddr(10, 0, 0, 1))
	r.host.NIC = netsim.NewLink(r.s, "nic", bdiffRate, 0,
		netsim.HandlerFunc(func(p *packet.Packet) { r.wire = appendBuf(r.wire, p) }))
	r.host.Demux = netsim.HandlerFunc(func(p *packet.Packet) { r.guest = appendBuf(r.guest, p) })
	r.feed = netsim.NewLink(r.s, "feed", bdiffRate, 0, r.host)
	cfg := core.DefaultConfig()
	cfg.MaxFlows = 64
	r.v = core.Attach(r.s, r.host, cfg)
	r.v.Audit = r.aud
	return r
}

func appendBuf(dst [][]byte, p *packet.Packet) [][]byte {
	if p == nil {
		return dst
	}
	return append(dst, append([]byte(nil), p.Buf...))
}

// drain fires everything due at the current instant (the replay clock
// stays at 0: every link event is zero-time).
func (r *bdiffReplay) drain() { r.s.Run(r.s.Now()) }

// direct calls the datapath entry points one packet at a time and records
// their outputs as Host.Output/HandlePacket would place them: after
// anything the hook itself injected.
func (r *bdiffReplay) direct(steps []bdiffStep) {
	for _, st := range steps {
		p := &packet.Packet{Buf: append([]byte(nil), st.buf...)}
		if st.egress {
			out, extra := r.v.EgressPath(p)
			r.drain()
			if out == nil && extra == nil {
				r.egDrop++
			}
			r.wire = appendBuf(appendBuf(r.wire, out), extra)
		} else {
			out, extra := r.v.IngressPath(p)
			r.drain()
			if out == nil && extra == nil {
				r.inDrop++
			}
			r.guest = appendBuf(appendBuf(r.guest, out), extra)
		}
	}
}

// bursts chops each run of consecutive same-direction packets into bursts
// of at most split, queues each burst at the host — Host.Output for egress,
// the ingress link for ingress — and only then lets the simulator deliver.
func (r *bdiffReplay) bursts(steps []bdiffStep, split int) {
	for i := 0; i < len(steps); {
		j := i
		for j < len(steps) && steps[j].egress == steps[i].egress {
			j++
		}
		for i < j {
			n := min(split, j-i)
			for _, st := range steps[i : i+n] {
				p := &packet.Packet{Buf: append([]byte(nil), st.buf...)}
				if st.egress {
					r.host.Output(p)
				} else if !r.feed.Send(p) {
					panic("replay feed link refused a packet")
				}
			}
			r.drain()
			i += n
		}
	}
	r.egDrop, r.inDrop = r.host.EgressDropped, r.host.IngressDropped
}

func bdiffStreams(t *testing.T, what string, split int, a, b [][]byte) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("split=%d: %d %s packets direct vs %d in bursts", split, len(a), what, len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("split=%d: %s packet %d diverged\ndirect: %x\nburst:  %x", split, what, i, a[i], b[i])
		}
	}
}

func bdiffCompare(t *testing.T, steps []bdiffStep, split int) {
	t.Helper()
	a, b := newBdiffReplay(), newBdiffReplay()
	a.direct(steps)
	b.bursts(steps, split)
	bdiffStreams(t, "wire", split, a.wire, b.wire)
	bdiffStreams(t, "guest", split, a.guest, b.guest)
	if a.egDrop != b.egDrop || a.inDrop != b.inDrop {
		t.Fatalf("split=%d: drops egress %d/%d ingress %d/%d (direct/burst)",
			split, a.egDrop, b.egDrop, a.inDrop, b.inDrop)
	}
	if now := b.s.Now(); now != 0 {
		t.Fatalf("split=%d: replay clock moved to %v", split, now)
	}
	if sa, sb := a.v.Stats(), b.v.Stats(); sa != sb {
		t.Fatalf("split=%d: stats diverged\ndirect: %+v\nburst:  %+v", split, sa, sb)
	}
	if a.v.Table.Len() != b.v.Table.Len() {
		t.Fatalf("split=%d: table len %d vs %d", split, a.v.Table.Len(), b.v.Table.Len())
	}
	if !reflect.DeepEqual(a.aud.log, b.aud.log) {
		n := min(len(a.aud.log), len(b.aud.log))
		for i := 0; i < n; i++ {
			if a.aud.log[i] != b.aud.log[i] {
				t.Fatalf("split=%d: audit event %d diverged\ndirect: %s\nburst:  %s",
					split, i, a.aud.log[i], b.aud.log[i])
			}
		}
		t.Fatalf("split=%d: audit stream length %d vs %d", split, len(a.aud.log), len(b.aud.log))
	}
}

// TestChaosBatchDifferential: for every catalog fault profile, replaying each
// host's recorded traffic in bursts queued at the host must be
// indistinguishable from handing it to the datapath packet at a time.
func TestChaosBatchDifferential(t *testing.T) {
	for _, name := range []string{
		"loss", "heavy-loss", "reorder", "dup", "jitter",
		"corrupt", "strip-options", "feedback-loss", "chaos",
	} {
		name := name
		t.Run(name, func(t *testing.T) {
			prof, ok := faults.Lookup(name)
			if !ok {
				t.Fatalf("profile %q missing", name)
			}
			streams := recordStreams(&prof, 21)
			total := 0
			for host, steps := range streams {
				total += len(steps)
				if len(steps) == 0 {
					continue
				}
				for _, split := range []int{1, 3, 32} {
					split := split
					t.Run(fmt.Sprintf("host=%d/split=%d", host, split), func(t *testing.T) {
						bdiffCompare(t, steps, split)
					})
				}
			}
			if total == 0 {
				t.Fatalf("profile %s recorded no traffic", name)
			}
		})
	}
}
