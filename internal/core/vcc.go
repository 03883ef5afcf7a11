package core

// Figure 5's constants: DCTCP's α EWMA gain g, the α assigned on loss and on
// an inactivity timeout (max_alpha), the α a new flow starts from (1, as in
// Linux DCTCP) and the virtual initial window in MSS.
const (
	alphaGain    = 1.0 / 16
	maxAlpha     = 1.0
	initAlpha    = 1.0
	initCwndPkts = 10
)

// vccID names the virtual congestion-control law the vSwitch runs on behalf
// of a flow; the zero value is DCTCP, the default. Both laws grow as NewReno
// in bytes (renoGrowBytes) and collapse alike on a timeout (collapseLocked):
// they differ only in the cut.
type vccID uint8

const (
	vccDCTCP vccID = iota
	vccReno        // loss/ECN halving: per-flow law assignment (§3.4), e.g. WAN flows
)

// vccNames indexes the laws' names by vccID.
var vccNames = [...]string{vccDCTCP: "dctcp", vccReno: "reno"}

func (id vccID) String() string { return vccNames[id] }

// cut is the law's multiplicative-decrease factor in [0,1], applied at most
// once per window (cutWindow). For DCTCP it is Equation 1: 1 − α/2 at β=1, a
// full α back-off at β=0; on loss the caller has pinned α to max_alpha. Reno
// halves regardless of α.
func (id vccID) cut(f *Flow) float64 {
	if id == vccReno {
		return 0.5
	}
	return max(0, 1-(f.Alpha-f.Alpha*f.Policy.Beta/2))
}

// lookupVCC resolves name in vccNames; "" names the default, DCTCP.
func lookupVCC(name string) (vccID, bool) {
	for i, n := range vccNames {
		if name == "" || n == name {
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

// renoGrowBytes is slow start + congestion avoidance in byte units
// (tcp_cong_avoid per Figure 5).
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
