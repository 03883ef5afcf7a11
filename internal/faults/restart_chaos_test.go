// Restart chaos suite: vSwitches die and come back (cold / warm / stale)
// while bulk transfers are in flight, and every transfer
// must still complete with the enforcement invariant intact — the RWND is
// never widened, not even by a vSwitch that just adopted the flow without a
// handshake. Runs under -race in CI alongside the link-fault chaos suite.
package faults_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/netsim"
	"acdc/internal/sim"
	"acdc/internal/topo"
)

// Restart timing against the chaos workload: 3 pairs × 8 × 64 KiB needs
// >1 ms of sim time on the shared 10G trunk, the three-way handshakes finish
// within the first ~30 µs, so 300 µs is solidly mid-transfer and 7 µs lands
// while SYNs are still on the wire.
const (
	restartMid       = 300 * sim.Microsecond
	restartHandshake = 7 * sim.Microsecond
	restartDowntime  = 20 * sim.Microsecond
)

// watchedTarget delegates to the real vSwitch but re-installs the RWND
// widen-watch after Reattach, because Reattach replaces the host hooks the
// watch was wrapped around. This keeps the invariant armed across restarts —
// the window where a resyncing vSwitch could plausibly widen a window is
// exactly the post-restart one. Reattach follows the restore in the same
// event, so it also logs the table the vSwitch came back with.
type watchedTarget struct {
	*core.VSwitch
	h       *netsim.Host
	widened *int64
	log     io.Writer
}

func (w watchedTarget) Reattach() {
	w.VSwitch.Reattach()
	wrapHostRwnd(w.h, w.widened)
	logTable(w.log, w.h.Name, w.VSwitch)
}

// logTable writes every flow v holds, in table order, with each field of it
// that a restore sets and the core API shows.
func logTable(log io.Writer, host string, v *core.VSwitch) {
	fmt.Fprintf(log, "table t=%d host=%s flows=%d\n", v.Sim.Now(), host, v.Table.Len())
	v.Table.Range(func(f *core.Flow) {
		fmt.Fprintf(log, "%+v %+v %+v mss=%d wscale=%v/%d ssthresh=%v ecn=%v vto=%d loss=%d\n",
			f.Key, f.Snapshot(), *f.Policy, f.MSS, f.WScaleKnown, f.PeerWScale,
			f.SsthreshBytes, f.GuestECN, f.VTimeouts(), f.LossEvents())
	})
}

// runRestartChaos is runChaos plus a restart plan, armed through the same
// faults.ScheduleRestarts path topo uses, with widen-watched targets.
func runRestartChaos(t *testing.T, plan faults.RestartPlan, prof *faults.Profile, seed int64) chaosOutcome {
	t.Helper()
	net := topo.Dumbbell(chaosPairs, chaosOptions(prof, seed))
	widened := watchRwnd(net)
	log := sha256.New()
	var targets []watchedTarget
	for i, v := range net.ACDC {
		if v != nil && plan.AppliesTo(i) {
			targets = append(targets, watchedTarget{VSwitch: v, h: net.Hosts[i], widened: widened, log: log})
		}
	}
	if len(targets) == 0 {
		t.Fatal("restart plan matched no AC/DC hosts")
	}
	faults.ScheduleRestarts(net.Sim, plan, targets)
	return driveChaos(net, widened, log)
}

// assertChaosComplete is the common acceptance bar: every message delivered,
// window never widened, flow table bounded.
func assertChaosComplete(t *testing.T, out chaosOutcome, label string) {
	t.Helper()
	want := chaosPairs * chaosMsgs
	if out.completed != want {
		t.Fatalf("%s: %d/%d messages completed", label, out.completed, want)
	}
	for i, d := range out.delivered {
		if d < chaosMsgs*chaosMsgSize {
			t.Fatalf("%s: flow %d delivered %d < %d", label, i, d, chaosMsgs*chaosMsgSize)
		}
	}
	if out.widened != 0 {
		t.Fatalf("%s: vSwitch widened an advertised window %d times", label, out.widened)
	}
	if out.maxTable > 64 {
		t.Fatalf("%s: flow table reached %d > MaxFlows=64", label, out.maxTable)
	}
}

// TestRestartMidTransfer is the tentpole acceptance: every recovery mode,
// fleet-wide restart in the middle of bulk transfers. Transfers complete,
// adopted/restored flows resynchronize, and no mode ever widens a window.
func TestRestartMidTransfer(t *testing.T) {
	cases := []struct {
		name        string
		mode        faults.RestartMode
		wantRestore bool // snapshot_restore_total > 0
		wantAdopted bool // flows_adopted_midstream_total > 0 (no state survived)
		// digest pins the run bit for bit: every delivery's time, flow and
		// bytes, and every restored table's records (chaosOutcome.digest).
		digest string
	}{
		{name: "cold", mode: faults.RestartCold, wantAdopted: true,
			digest: "cae202b6dd7d86656195cacc6178a97d737c0ce511ed971177c621e43c7926c6"},
		{name: "warm", mode: faults.RestartWarm, wantRestore: true,
			digest: "7104593f81308864750b724ce9b85f92a21b9ed4eecb52b70595aeed5e8c8f51"},
		{name: "stale", mode: faults.RestartStale, wantRestore: true,
			digest: "91c4bc9d40057a058513d45dec418ae67489a0206320dd672e0b292e2fd87b37"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			plan := faults.RestartPlan{
				Mode:     tc.mode,
				At:       restartMid,
				Downtime: restartDowntime,
				StaleAge: 100 * sim.Microsecond,
			}
			out := runRestartChaos(t, plan, nil, 5)
			assertChaosComplete(t, out, tc.name)
			if got := out.snap.Counter("vswitch_restarts_total"); got != 2*chaosPairs {
				t.Fatalf("vswitch_restarts_total = %d, want %d (every host once)",
					got, 2*chaosPairs)
			}
			if out.snap.Counter("flows_resynced_total") == 0 {
				t.Fatal("no flow ever completed resync after the restart")
			}
			if tc.wantRestore && out.snap.Counter("snapshot_restore_total") == 0 {
				t.Fatal("warm/stale restart never restored a checkpoint")
			}
			if tc.wantAdopted && out.snap.Counter("flows_adopted_midstream_total") == 0 {
				t.Fatal("cold restart never adopted a live flow midstream")
			}
			if tc.mode != faults.RestartCold {
				if out.snap.Counter("snapshot_save_total") == 0 {
					t.Fatal("no checkpoint was ever taken")
				}
			}
			if out.digest != tc.digest {
				t.Errorf("run digest = %s, want %s", out.digest, tc.digest)
			}
		})
	}
}

// TestRestartDuringHandshake kills every vSwitch while the SYNs are still on
// the wire: the flow state that dies is half-open, so the revived vSwitch
// sees SYN-ACKs (or final ACKs) for flows it never saw open.
func TestRestartDuringHandshake(t *testing.T) {
	for _, mode := range []faults.RestartMode{faults.RestartCold, faults.RestartWarm} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			plan := faults.RestartPlan{Mode: mode, At: restartHandshake, Downtime: 5 * sim.Microsecond}
			out := runRestartChaos(t, plan, nil, 5)
			assertChaosComplete(t, out, "handshake-"+mode.String())
		})
	}
}

// TestRestartDuringLossRecovery overlaps the restart with the heavy-loss
// link profile, so flows are in fast recovery / retransmission when their
// enforcement state vanishes.
func TestRestartDuringLossRecovery(t *testing.T) {
	prof, ok := faults.Lookup("heavy-loss")
	if !ok {
		t.Fatal("heavy-loss profile missing")
	}
	plan := faults.RestartPlan{Mode: faults.RestartWarm, At: restartMid, Downtime: restartDowntime}
	out := runRestartChaos(t, plan, &prof, 5)
	assertChaosComplete(t, out, "loss-recovery")
	if out.faultTotal == 0 {
		t.Fatal("heavy-loss profile injected nothing")
	}
	if out.snap.Counter("vswitch_restarts_total") == 0 {
		t.Fatal("no restart fired")
	}
}

// TestRestartBothEndpoints restarts exactly the two vSwitches of one pair at
// the same instant — sender and receiver lose state together, so the PACK
// feedback loop has to re-bootstrap from both ends at once. The other two
// pairs keep their vSwitches throughout and must be unaffected.
func TestRestartBothEndpoints(t *testing.T) {
	plan := faults.RestartPlan{
		Mode:     faults.RestartCold,
		At:       restartMid,
		Downtime: restartDowntime,
		Hosts:    []int{0, chaosPairs}, // pair 0: sender host 0, receiver host 3
	}
	out := runRestartChaos(t, plan, nil, 5)
	assertChaosComplete(t, out, "both-endpoints")
	if got := out.snap.Counter("vswitch_restarts_total"); got != 2 {
		t.Fatalf("vswitch_restarts_total = %d, want 2 (one pair only)", got)
	}
	if out.snap.Counter("flows_resynced_total") == 0 {
		t.Fatal("the restarted pair never resynchronized")
	}
}

// TestRestartPeerOnly restarts only the receiver-side vSwitches. The sender
// vSwitches keep their cumulative feedback counters, so when the restarted
// peers start counting from zero again the senders must take the regression
// re-baseline path (feedback_resets_total) instead of computing a garbage
// multi-gigabyte delta.
func TestRestartPeerOnly(t *testing.T) {
	plan := faults.RestartPlan{
		Mode:     faults.RestartCold,
		At:       restartMid,
		Downtime: restartDowntime,
		Hosts:    []int{chaosPairs, chaosPairs + 1, chaosPairs + 2},
	}
	out := runRestartChaos(t, plan, nil, 5)
	assertChaosComplete(t, out, "peer-only")
	if got := out.snap.Counter("vswitch_restarts_total"); got != chaosPairs {
		t.Fatalf("vswitch_restarts_total = %d, want %d (receiver side only)", got, chaosPairs)
	}
	if out.snap.Counter("feedback_resets_total") == 0 {
		t.Fatal("senders never re-baselined the regressed peer feedback")
	}
}

// TestRestartRecurring re-kills the fleet every 400µs for the whole run. The
// plan only re-arms while flows remain, so the sim still terminates, and the
// workload must still finish despite losing state over and over.
func TestRestartRecurring(t *testing.T) {
	plan := faults.RestartPlan{
		Mode:     faults.RestartWarm,
		At:       restartMid,
		Downtime: restartDowntime,
		Every:    400 * sim.Microsecond,
	}
	out := runRestartChaos(t, plan, nil, 5)
	assertChaosComplete(t, out, "recurring")
	if got := out.snap.Counter("vswitch_restarts_total"); got < 2*2*chaosPairs {
		t.Fatalf("vswitch_restarts_total = %d, want at least two rounds (%d)",
			got, 2*2*chaosPairs)
	}
}

// TestRestartDeterminism: a restart plan adds no randomness — same seed and
// plan must replay to the identical fleet state.
func TestRestartDeterminism(t *testing.T) {
	plan := faults.RestartPlan{Mode: faults.RestartStale, At: restartMid,
		Downtime: restartDowntime, StaleAge: 100 * sim.Microsecond}
	a := runRestartChaos(t, plan, nil, 11)
	b := runRestartChaos(t, plan, nil, 11)
	if a.fleet != b.fleet {
		t.Fatal("fleet metrics diverged between identical restart runs")
	}
	for i := range a.delivered {
		if a.delivered[i] != b.delivered[i] {
			t.Fatalf("flow %d delivered %d vs %d on replay", i, a.delivered[i], b.delivered[i])
		}
	}
}

// TestRestartViaTopoOptions drives the production wiring end to end: the
// plan rides in on topo.Options (as the CLIs set it) rather than being
// scheduled by the test, and the run must still complete and resync.
func TestRestartViaTopoOptions(t *testing.T) {
	plan := faults.RestartPlan{Mode: faults.RestartWarm, At: restartMid, Downtime: restartDowntime}
	opts := chaosOptions(nil, 5)
	opts.Restart = &plan
	net := topo.Dumbbell(chaosPairs, opts)
	widened := watchRwnd(net)
	out := driveChaos(net, widened, sha256.New())
	assertChaosComplete(t, out, "topo-options")
	if out.snap.Counter("vswitch_restarts_total") != 2*chaosPairs {
		t.Fatalf("vswitch_restarts_total = %d, want %d",
			out.snap.Counter("vswitch_restarts_total"), 2*chaosPairs)
	}
	if out.snap.Counter("flows_resynced_total") == 0 {
		t.Fatal("no flow resynced through the topo.Options wiring")
	}
}
