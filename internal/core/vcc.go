package core

import "fmt"

// VirtualCC is the congestion-control law the vSwitch runs on behalf of the
// guest. Implementations mutate f.CwndBytes/f.SsthreshBytes; the surrounding
// machinery (α accounting, once-per-window guards, dupack detection,
// inactivity timers) lives in the sender module and calls these hooks.
type VirtualCC interface {
	Name() string
	Init(f *Flow)
	// OnAck runs for every ACK that advances snd_una; ackedBytes is the
	// newly acknowledged payload, congested reports whether this window has
	// seen ECN feedback (used by algorithms that cut on ECN).
	OnAck(f *Flow, ackedBytes int64)
	// CutFactor returns the multiplicative-decrease factor in (0,1] applied
	// at most once per window when congestion (ECN or loss) is detected.
	CutFactor(f *Flow, loss bool) float64
	// OnTimeout handles the inactivity (virtual RTO) event.
	OnTimeout(f *Flow)
}

// vccLaws are the virtual CCs of this build. The laws are stateless, so a
// flow names its law by index (Flow.vcc) and every flow shares one value.
var vccLaws = [...]VirtualCC{&VDCTCP{}, &VReno{}}

// vccID indexes vccLaws; the zero value is DCTCP, the default law.
type vccID uint8

// law returns the flow's virtual CC.
func (f *Flow) law() VirtualCC { return vccLaws[f.vcc] }

// lookupVCC resolves name in vccLaws, whose first entry is the default that
// "" names.
func lookupVCC(name string) (vccID, bool) {
	for i, x := range vccLaws {
		if name == "" || x.Name() == name {
			return vccID(i), true
		}
	}
	return 0, false
}

// vccKnown reports whether name resolves to a virtual CC in this build
// ("" means the vSwitch default and is always known).
func vccKnown(name string) bool {
	_, ok := lookupVCC(name)
	return ok
}

// NewVCC returns a virtual CC by name ("dctcp" or "reno").
func NewVCC(name string) VirtualCC {
	id, ok := lookupVCC(name)
	if !ok {
		panic(fmt.Sprintf("core: unknown virtual congestion control %q", name))
	}
	return vccLaws[id]
}

// VDCTCP is the paper's vSwitch DCTCP (Figure 5) with the β priority
// extension (Equation 1). α itself is maintained by the sender module (it
// needs PACK feedback plumbing); this type supplies growth and cut laws.
type VDCTCP struct{}

// Name implements VirtualCC.
func (*VDCTCP) Name() string { return "dctcp" }

// Init implements VirtualCC.
func (*VDCTCP) Init(f *Flow) {}

// OnAck implements VirtualCC: tcp_cong_avoid per Figure 5 — New Reno growth
// in byte units.
func (*VDCTCP) OnAck(f *Flow, acked int64) {
	renoGrowBytes(f, acked)
}

// CutFactor implements VirtualCC: Equation 1. With β=1 this is DCTCP's
// 1 − α/2; with β=0 the window backs off by the full α. On loss, α is
// pinned to max_alpha by the caller before the cut.
func (*VDCTCP) CutFactor(f *Flow, loss bool) float64 {
	beta := f.Policy.Beta
	factor := 1 - (f.Alpha - f.Alpha*beta/2)
	if factor < 0 {
		factor = 0
	}
	return factor
}

// OnTimeout implements VirtualCC: collapse to one MSS and slow-start.
func (*VDCTCP) OnTimeout(f *Flow) {
	f.SsthreshBytes = f.CwndBytes / 2
	if f.SsthreshBytes < float64(2*f.MSS) {
		f.SsthreshBytes = float64(2 * f.MSS)
	}
	f.CwndBytes = float64(f.MSS)
}

// VReno is a loss/ECN-halving virtual CC, demonstrating per-flow algorithm
// assignment (§3.4: e.g. WAN flows on a different law than DC flows).
type VReno struct{}

// Name implements VirtualCC.
func (*VReno) Name() string { return "reno" }

// Init implements VirtualCC.
func (*VReno) Init(f *Flow) {}

// OnAck implements VirtualCC.
func (*VReno) OnAck(f *Flow, acked int64) { renoGrowBytes(f, acked) }

// CutFactor implements VirtualCC: classic halving regardless of α.
func (*VReno) CutFactor(f *Flow, loss bool) float64 { return 0.5 }

// OnTimeout implements VirtualCC.
func (*VReno) OnTimeout(f *Flow) {
	f.SsthreshBytes = f.CwndBytes / 2
	if f.SsthreshBytes < float64(2*f.MSS) {
		f.SsthreshBytes = float64(2 * f.MSS)
	}
	f.CwndBytes = float64(f.MSS)
}

// renoGrowBytes is slow start + congestion avoidance in byte units.
func renoGrowBytes(f *Flow, acked int64) {
	if f.CwndBytes < f.SsthreshBytes {
		room := f.SsthreshBytes - f.CwndBytes
		grow := float64(acked)
		if grow > room {
			f.CwndBytes += room
			caGrowBytes(f, grow-room)
			return
		}
		f.CwndBytes += grow
		return
	}
	caGrowBytes(f, float64(acked))
}

func caGrowBytes(f *Flow, acked float64) {
	if f.CwndBytes <= 0 {
		f.CwndBytes = float64(f.MSS)
	}
	f.CwndBytes += float64(f.MSS) * acked / f.CwndBytes
}
