// Chaos suite: every fault profile is driven through a full AC/DC dumbbell
// (guest stacks, vSwitches, switches, injected links) and the run must
// degrade gracefully — no panic, no deadlock, every application message
// delivered, and the enforced RWND never widened past what the guest
// advertised. The suite runs under -race in CI.
package faults_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"testing"

	"acdc/internal/audit"
	"acdc/internal/core"
	"acdc/internal/faults"
	"acdc/internal/metrics"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
	"acdc/internal/tcpstack"
	"acdc/internal/topo"
	"acdc/internal/workload"
)

const (
	chaosPairs   = 3
	chaosMsgs    = 8
	chaosMsgSize = 64 << 10
	chaosBound   = 5 * sim.Second
)

// chaosOptions builds the AC/DC scheme used by every chaos run: CUBIC
// guests, vSwitch DCTCP, ECN marking on, bounded flow table, timed sweep —
// and the invariant auditor in panic mode, so any datapath invariant broken
// under fault pressure (including across restarts: the restart-chaos suite
// builds on these options) fails the suite at the violating packet instead
// of surfacing as a downstream symptom.
func chaosOptions(prof *faults.Profile, seed int64) topo.Options {
	ac := core.DefaultConfig()
	ac.MaxFlows = 64
	ac.SweepInterval = 10 * sim.Millisecond
	return topo.Options{
		Guest: tcpstack.DefaultConfig(),
		ACDC:  &ac,
		RED:   netsim.REDConfig{MarkThresholdBytes: topo.DefaultMarkThreshold},
		Seed:  seed,
		Env:   topo.Env{Faults: prof, Audit: &audit.Config{Panic: true}},
	}
}

// watchRwnd wraps every host's datapath hooks to assert the enforcement
// invariant: a packet that comes out of the vSwitch with the same identity
// it went in with may only have its receive window lowered, never raised —
// under every fault profile. Returns a counter of violations.
func watchRwnd(net *topo.Net) *int64 {
	widened := new(int64)
	for _, h := range net.Hosts {
		wrapHostRwnd(h, widened)
	}
	return widened
}

// wrapHostRwnd installs the widen-watch on one host's current hooks. Restart
// tests re-invoke it after Reattach replaces the hooks.
func wrapHostRwnd(h *netsim.Host, widened *int64) {
	wrap := func(orig netsim.PathHook) netsim.PathHook {
		if orig == nil {
			return nil
		}
		return func(p *packet.Packet) (*packet.Packet, *packet.Packet) {
			var before uint16
			checkable := false
			if ip := packet.IPv4(p.Buf); ip.Valid() && ip.Protocol() == packet.ProtoTCP {
				if tc := ip.TCP(); tc.Valid() {
					before, checkable = tc.Window(), true
				}
			}
			out, extra := orig(p)
			// Only the packet with the same identity it went in with is a
			// rewrite; a synthesized packet (FACK/dup-ACK) is not checked.
			if checkable && out == p {
				if ip := packet.IPv4(out.Buf); ip.Valid() && ip.Protocol() == packet.ProtoTCP {
					if tc := ip.TCP(); tc.Valid() && tc.Window() > before {
						*widened++
					}
				}
			}
			return out, extra
		}
	}
	h.Egress = wrap(h.Egress)
	h.Ingress = wrap(h.Ingress)
}

// chaosOutcome is everything a chaos run asserts on or compares across runs.
type chaosOutcome struct {
	completed  int
	delivered  []int64
	widened    int64
	maxTable   int
	faultTotal int64
	fleet      string           // merged vSwitch metrics snapshot text
	snap       metrics.Snapshot // the same snapshot, queryable by counter name
	digest     string           // sha256 of the run log driveChaos was given
}

func runChaos(t *testing.T, prof *faults.Profile, seed int64) chaosOutcome {
	t.Helper()
	net := topo.Dumbbell(chaosPairs, chaosOptions(prof, seed))
	widened := watchRwnd(net)
	return driveChaos(net, widened, sha256.New())
}

// driveChaos runs the standard chaos workload (chaosPairs flows, chaosMsgs
// messages each) on an already-built net and collects the outcome. Restart
// tests build the net themselves so they can arm restart plans first. Each
// completed message appends its time, flow and delivered bytes to log, whose
// sum becomes the outcome's digest.
func driveChaos(net *topo.Net, widened *int64, log hash.Hash) chaosOutcome {
	m := workload.NewManager(net)

	completed := 0
	flows := make([]*workload.Messenger, chaosPairs)
	for i := 0; i < chaosPairs; i++ {
		flows[i] = m.Open(i, chaosPairs+i)
		for j := 0; j < chaosMsgs; j++ {
			flows[i].SendMessage(chaosMsgSize, func(sim.Duration) {
				completed++
				fmt.Fprintf(log, "deliver t=%d flow=%d bytes=%d\n", net.Sim.Now(), i, flows[i].Delivered())
			})
		}
	}

	// Sample the flow-table bound while the run is hot.
	maxTable := 0
	var tick func()
	tick = func() {
		for _, v := range net.ACDC {
			if v == nil {
				continue
			}
			if n := v.Table.Len(); n > maxTable {
				maxTable = n
			}
		}
		net.Sim.Schedule(10*sim.Millisecond, tick)
	}
	net.Sim.Schedule(10*sim.Millisecond, tick)

	net.Sim.RunFor(chaosBound)

	out := chaosOutcome{
		completed: completed,
		widened:   *widened,
		maxTable:  maxTable,
		digest:    fmt.Sprintf("%x", log.Sum(nil)),
	}
	for _, f := range flows {
		out.delivered = append(out.delivered, f.Delivered())
	}
	var snaps []metrics.Snapshot
	for _, v := range net.ACDC {
		if v != nil {
			snaps = append(snaps, v.Metrics.Snapshot())
		}
	}
	out.snap = metrics.Merge(snaps...)
	out.fleet = out.snap.Text()
	if net.Faults != nil {
		out.faultTotal = net.Faults.Total()
	}
	return out
}

// TestChaosProfiles is the acceptance gate: every built-in profile (and the
// two the issue singles out — feedback-loss-only and strip-options) must
// leave the fabric degraded but correct.
func TestChaosProfiles(t *testing.T) {
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
			out := runChaos(t, &prof, 5)
			want := chaosPairs * chaosMsgs
			if out.completed != want {
				t.Fatalf("%d/%d messages completed under %s", out.completed, want, name)
			}
			for i, d := range out.delivered {
				if d < chaosMsgs*chaosMsgSize {
					t.Fatalf("flow %d delivered %d < %d", i, d, chaosMsgs*chaosMsgSize)
				}
			}
			if out.widened != 0 {
				t.Fatalf("vSwitch widened an advertised window %d times under %s",
					out.widened, name)
			}
			if out.maxTable > 64 {
				t.Fatalf("flow table reached %d > MaxFlows=64", out.maxTable)
			}
			if out.faultTotal == 0 {
				t.Fatalf("profile %s injected nothing", name)
			}
		})
	}
}

// TestChaosDeterminism: one profile, one seed — two runs must agree on every
// observable (the injector PRNG is the only randomness the faults add).
func TestChaosDeterminism(t *testing.T) {
	prof, _ := faults.Lookup("chaos")
	a := runChaos(t, &prof, 11)
	b := runChaos(t, &prof, 11)
	if a.completed != b.completed || a.faultTotal != b.faultTotal {
		t.Fatalf("replay diverged: completed %d/%d, faults %d/%d",
			a.completed, b.completed, a.faultTotal, b.faultTotal)
	}
	for i := range a.delivered {
		if a.delivered[i] != b.delivered[i] {
			t.Fatalf("flow %d delivered %d vs %d on replay", i, a.delivered[i], b.delivered[i])
		}
	}
	if a.fleet != b.fleet {
		t.Fatal("fleet metrics snapshots differ between identical chaos runs")
	}
	c := runChaos(t, &prof, 12)
	if c.faultTotal == a.faultTotal && c.fleet == a.fleet {
		t.Fatal("different fault seed produced an identical run")
	}
}

// TestDisabledFaultsAreByteIdentical: a nil profile and an explicit disabled
// profile must take the exact fault-free code path — no injector, identical
// delivery, identical metrics text.
func TestDisabledFaultsAreByteIdentical(t *testing.T) {
	none := faults.Profile{Name: "none"}
	a := runChaos(t, nil, 3)
	b := runChaos(t, &none, 3)
	if a.faultTotal != 0 || b.faultTotal != 0 {
		t.Fatal("disabled profile created an active injector")
	}
	for i := range a.delivered {
		if a.delivered[i] != b.delivered[i] {
			t.Fatalf("flow %d: nil profile delivered %d, disabled profile %d",
				i, a.delivered[i], b.delivered[i])
		}
	}
	if a.fleet != b.fleet {
		t.Fatal("metrics differ between nil and disabled fault profiles")
	}
	if a.widened != 0 || b.widened != 0 {
		t.Fatal("window widened in a fault-free run")
	}
}

// TestChaosFailOpenVisible: under the full chaos mix the degradation paths
// must be observable — the counters the operator would alert on are moving.
func TestChaosFailOpenVisible(t *testing.T) {
	prof, _ := faults.Lookup("chaos")
	net := topo.Dumbbell(chaosPairs, chaosOptions(&prof, 9))
	m := workload.NewManager(net)
	for i := 0; i < chaosPairs; i++ {
		ms := m.Open(i, chaosPairs+i)
		ms.SendBulk(2 << 20)
	}
	net.Sim.RunFor(sim.Second)

	var merged metrics.Snapshot
	var snaps []metrics.Snapshot
	for _, v := range net.ACDC {
		if v != nil {
			snaps = append(snaps, v.Metrics.Snapshot())
		}
	}
	merged = metrics.Merge(snaps...)
	// The chaos profile corrupts options and drops feedback, so both
	// hardening paths must have fired somewhere in the fleet.
	if merged.Counter("malformed_options_total") == 0 {
		t.Fatal("corrupt faults never tripped the malformed-options fail-open")
	}
	if merged.Counter("fail_open_total") == 0 {
		t.Fatal("no fail-open events under the chaos profile")
	}
	fi := net.Faults.Registry().Snapshot()
	if fi.Counter("fault_feedback_drops_total")+fi.Counter("fault_feedback_strips_total") == 0 {
		t.Fatal("chaos profile never touched feedback")
	}
}
