package soak

import (
	"acdc/internal/core"
	"acdc/internal/daemon"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// Defect selects a deliberately seeded bug for harness self-tests; it is the
// plant each gate's test hands to run.
type Defect string

const (
	// DefectUndeadFlow keeps one synthetic flow-table entry alive forever —
	// a keepalive event refreshes it through the datapath with no connection
	// behind it, so it survives the drain. Models a broken removal path.
	DefectUndeadFlow Defect = "undead-flow"
	// DefectCounterRegress subtracts a billion from a datapath counter
	// mid-run, and again after every sample. Models double accounting or a
	// racy counter reset.
	DefectCounterRegress Defect = "counter-regress"
	// DefectHostileBeta writes β=3 straight into live flows, bypassing the
	// Policy sanitize/validate choke point. The next congestion cut grows
	// the window (Eq. 1 factor > 1) and the always-on state-transition
	// audit catches it. Models an unsanitized policy install path.
	DefectHostileBeta Defect = "hostile-beta"
	// DefectPhantomDemand keeps opening and closing a synthetic connection
	// through host 0's datapath, drain included, so every sweep sees flows
	// created and the trim keeps records parked to the end. Models a free
	// list that is no longer trimmed; core has no switch that skips the trim
	// (and gets none for a self-test), so the defect feeds it instead, and
	// its connections trip the flow-table gate as well.
	DefectPhantomDemand Defect = "phantom-demand"
)

// before plants the defects that live inside the simulation.
func (defect Defect) before(d *daemon.Daemon) {
	switch defect {
	case DefectUndeadFlow:
		injectUndeadFlow(d.Net().ACDC[0], d.Net().Sim)
	case DefectPhantomDemand:
		injectPhantomDemand(d.Net().ACDC[0], d.Net().Sim)
	}
}

// injectUndeadFlow schedules a keepalive that refreshes one synthetic flow
// through host 0's egress every 50ms of virtual time — forever, including
// through the drain. No connection backs the entry, so a correct harness
// must flag it as leaked. Scheduled before the daemon starts (sim-goroutine
// rule); the event then reschedules itself from inside the simulation.
func injectUndeadFlow(v *core.VSwitch, s *sim.Simulator) {
	src := packet.MakeAddr(10, 99, 99, 1)
	dst := packet.MakeAddr(10, 99, 99, 2)
	var seq uint32 = 1000
	var keepalive func()
	keepalive = func() {
		p := packet.Build(src, dst, packet.NotECT, packet.TCPFields{
			SrcPort: 49999, DstPort: 49998,
			Seq: seq, Ack: 1, Flags: packet.FlagACK | packet.FlagPSH,
			Window: 65535,
		}, 1000)
		seq += 1000
		v.EgressPath(p) // midstream adoption creates (and refreshes) the entry
		s.ScheduleFunc(50*sim.Millisecond, keepalive)
	}
	s.ScheduleFunc(0, keepalive)
}

// injectPhantomDemand opens and closes one synthetic connection through host
// 0's datapath every 5ms of virtual time, forever: SYN out, FIN out, FIN in —
// two records, closed, with nothing behind them. Each sweep collects the ones
// old enough and, having seen new ones created, keeps records parked for the
// next. Scheduled like injectUndeadFlow.
func injectPhantomDemand(v *core.VSwitch, s *sim.Simulator) {
	src := packet.MakeAddr(10, 99, 99, 1)
	dst := packet.MakeAddr(10, 99, 99, 2)
	port := uint16(0)
	var cycle func()
	cycle = func() {
		port++
		sp := 20000 + port%20000
		const ack, fin = packet.FlagACK, packet.FlagFIN
		v.EgressPath(packet.Build(src, dst, packet.NotECT, packet.TCPFields{
			SrcPort: sp, DstPort: 49998, Seq: 1000, Flags: packet.FlagSYN, Window: 65535}, 0))
		v.EgressPath(packet.Build(src, dst, packet.NotECT, packet.TCPFields{
			SrcPort: sp, DstPort: 49998, Seq: 1001, Ack: 1, Flags: ack | fin, Window: 65535}, 0))
		v.IngressPath(packet.Build(dst, src, packet.NotECT, packet.TCPFields{
			SrcPort: 49998, DstPort: sp, Seq: 1, Ack: 1002, Flags: ack | fin, Window: 65535}, 0))
		s.ScheduleFunc(5*sim.Millisecond, cycle)
	}
	s.ScheduleFunc(0, cycle)
}

// midRun plants the wall-clock-timed defects, marshaled onto the sim
// goroutine. run calls it again after every sample: churn keeps replacing
// the poisoned flows with clean ones, and the counter regresses anew.
func (defect Defect) midRun(d *daemon.Daemon) error {
	switch defect {
	case DefectCounterRegress:
		v := d.Net().ACDC[0]
		return d.Exec(func() { v.Metrics.EgressSegs.Add(-1_000_000_000) })
	case DefectHostileBeta:
		return d.Exec(func() {
			for _, v := range d.Net().ACDC {
				poisonBeta(v)
			}
		})
	}
	return nil
}

// poisonBeta gives every flow v tracks β = 3, past the Sanitized choke point.
// Flows share policy values, so each gets a private copy: writing through
// Flow.Policy would poison the shared default, and every flow created after.
func poisonBeta(v *core.VSwitch) {
	v.Table.Range(func(f *core.Flow) {
		p := *f.Policy
		p.Beta = 3
		f.Policy = &p
	})
}
