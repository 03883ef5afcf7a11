package soak

import (
	"strings"
	"testing"
	"time"

	"acdc/internal/core"
	"acdc/internal/netsim"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

// dur shrinks soak lengths under -short while keeping enough runway for the
// activity floors and the mid-run defect injection point (Duration/2).
func dur(t *testing.T, full time.Duration) time.Duration {
	if testing.Short() {
		return full / 2
	}
	return full
}

// hasFailure reports whether any gate failure mentions substr.
func hasFailure(r *Report, substr string) bool {
	for _, f := range r.Failures {
		if strings.Contains(f, substr) {
			return true
		}
	}
	return false
}

func TestCleanSoakPasses(t *testing.T) {
	r := Run(Config{Duration: dur(t, 4*time.Second), Log: t.Logf})
	if r.Failed() {
		t.Fatalf("clean soak failed:\n%s", r)
	}
	// The run must actually have soaked: live updates streamed, hostile ones
	// streamed and rejected, restarts and fault flips landed, flows churned.
	if r.Updates < 100 {
		t.Errorf("only %d policy updates", r.Updates)
	}
	if r.HostileAttempts == 0 || r.Rejects < r.HostileAttempts {
		t.Errorf("hostile attempts %d, rejects %d — the reject path was not exercised",
			r.HostileAttempts, r.Rejects)
	}
	// Unknown-backend installs must have streamed AND been clamped rather
	// than rejected: streamOne records a gate failure if one errors, so here
	// it is enough that the path was exercised on a passing run.
	if r.FailOpenAttempts == 0 {
		t.Error("no unknown-backend installs streamed — the fail-open path was not exercised")
	}
	if r.Restarts == 0 {
		t.Error("no restarts")
	}
	if r.FaultFlips == 0 {
		t.Error("no fault flips")
	}
	if r.Arrivals == 0 || r.Departs == 0 {
		t.Errorf("churn did not run: %d arrivals, %d departures", r.Arrivals, r.Departs)
	}
	if r.FlowsHighWater == 0 {
		t.Error("no flows were ever tracked")
	}
	if r.VirtualEnd == 0 {
		t.Error("virtual clock never advanced")
	}
}

func TestSoakCatchesUndeadFlow(t *testing.T) {
	r := Run(Config{Duration: dur(t, 2*time.Second), Inject: DefectUndeadFlow, Log: t.Logf})
	if !hasFailure(r, "flow-table leak") {
		t.Fatalf("undead flow not detected:\n%s", r)
	}
	if r.LeakedFlows == 0 {
		t.Fatalf("leak reported without a leaked-flow count:\n%s", r)
	}
}

func TestSoakCatchesCounterRegress(t *testing.T) {
	r := Run(Config{Duration: dur(t, 2*time.Second), Inject: DefectCounterRegress, Log: t.Logf})
	if !hasFailure(r, "counter drift") {
		t.Fatalf("counter regression not detected:\n%s", r)
	}
	if !hasFailure(r, "egress_segments_total") {
		t.Fatalf("drift report does not name the regressed counter:\n%s", r)
	}
}

func TestSoakCatchesHostileBeta(t *testing.T) {
	r := Run(Config{Duration: dur(t, 3*time.Second), Inject: DefectHostileBeta, Log: t.Logf})
	if !hasFailure(r, "audit") {
		t.Fatalf("unsanitized live policy not detected:\n%s", r)
	}
	if r.AuditViolations == 0 {
		t.Fatalf("audit failure without a violation count:\n%s", r)
	}
}

func TestSoakCatchesParkedRecords(t *testing.T) {
	r := Run(Config{Duration: dur(t, 2*time.Second), Inject: DefectPhantomDemand, Log: t.Logf})
	if !hasFailure(r, "flow-record leak") {
		t.Fatalf("records parked after the drain not detected:\n%s", r)
	}
	if r.ParkedRecords == 0 {
		t.Fatalf("leak reported without a parked-record count:\n%s", r)
	}
}

// TestPoisonBetaWritesPrivateCopies: the hostile-β defect poisons the flows
// it finds, never the policy value they share with flows created later.
func TestPoisonBetaWritesPrivateCopies(t *testing.T) {
	s := sim.New(1)
	host := netsim.NewHost(s, "h", packet.MakeAddr(10, 0, 0, 1))
	host.NIC = netsim.NewLink(s, "nic", 10e9, sim.Microsecond, netsim.HandlerFunc(func(*packet.Packet) {}))
	v := core.Attach(s, host, core.DefaultConfig())
	open := func(sport uint16) *core.Flow {
		k := core.FlowKey{Src: host.Addr, Dst: packet.MakeAddr(10, 0, 0, 2), SPort: sport, DPort: 80}
		v.EgressPath(packet.Build(k.Src, k.Dst, packet.NotECT, packet.TCPFields{
			SrcPort: k.SPort, DstPort: k.DPort, Flags: packet.FlagSYN, Window: 65535}, 0))
		return v.Table.Get(k)
	}
	poisoned := open(1)
	poisonBeta(v)
	if poisoned.Policy.Beta != 3 {
		t.Fatalf("the defect left a tracked flow at β=%v", poisoned.Policy.Beta)
	}
	if fresh := open(2); fresh.Policy.Beta != 1 {
		t.Fatalf("a flow created after the defect has β=%v: it wrote through the shared default", fresh.Policy.Beta)
	}
}
