package core

import (
	"encoding/json"
	stdflag "flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"acdc/internal/metrics"
	"acdc/internal/packet"
	"acdc/internal/sim"
)

var updateGoldens = stdflag.Bool("update", false, "rewrite the datapath snapshot goldens")

// datapathRun is one scripted run of a three-host bench: bulk CUBIC flows
// from hosts 0 and 1 into host 2 under AC/DC for 20 ms, and each vSwitch's
// snapshot at the end. degraded also fires lazy series on both vSwitches: at 5 ms
// host 0's restarts warm from its own checkpoint, at 10 ms its flow takes a
// live policy that swaps its law to Reno, host 1's passes a packet with a
// malformed option block, and both publish the flow-table gauges.
func datapathRun(t *testing.T, degraded bool) []metrics.Snapshot {
	cfg := DefaultConfig()
	b := newBench(t, 3, cubicGuest(), &cfg, redK(), 10e9)
	b.longFlow(t, 0, 2)
	b.longFlow(t, 1, 2)
	if degraded {
		v0, v1 := b.acdc[0], b.acdc[1]
		b.s.At(5*sim.Millisecond, func() { v0.Restart(v0.SaveSnapshot()) })
		b.s.At(10*sim.Millisecond, func() {
			for _, f := range tableFlows(v0.Table) {
				if _, err := v0.InstallPolicy(f.Key, Policy{Beta: 1, VCC: "reno"}); err != nil {
					t.Error(err)
				}
			}
			bad := packet.Build(b.hosts[1].Addr, b.hosts[0].Addr, packet.NotECT, packet.TCPFields{
				SrcPort: 1, DstPort: 2, Seq: 100, Ack: 1, Flags: packet.FlagACK,
				Window: 65535, Options: []byte{packet.OptMSS, 40, 0, 0}}, 100)
			egress(v1, bad)
		})
	}
	b.s.Run(20 * sim.Millisecond)
	var snaps []metrics.Snapshot
	for _, v := range b.acdc {
		snaps = append(snaps, v.Metrics.Snapshot())
	}
	return snaps
}

// TestDatapathSnapshotGolden pins what a vSwitch's metrics render to, text
// and JSON, for a healthy run and for one whose lazy series fire: which
// series appear, under which names, with which values. The values move with
// the datapath's behaviour, so a re-bless regenerates them with
//
//	go test ./internal/core/ -run TestDatapathSnapshotGolden -update
func TestDatapathSnapshotGolden(t *testing.T) {
	for _, tc := range []struct {
		name     string
		degraded bool
	}{{"healthy", false}, {"degraded", true}} {
		t.Run(tc.name, func(t *testing.T) {
			var b strings.Builder
			for i, s := range datapathRun(t, tc.degraded) {
				raw, err := json.MarshalIndent(s, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "## host %d text\n%s## host %d json\n%s\n", i, s.Text(), i, raw)
			}
			path := filepath.Join("testdata", "datapath_metrics_"+tc.name+".golden")
			if *updateGoldens {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Errorf("%s differs from %s:\n%s", tc.name, path, got)
			}
		})
	}
}

// TestFirstLawFootprint pins what a vSwitch's metrics allocate when a flow
// first runs a virtual CC law: that law's CWND and α histograms, whose names
// and bounds every vSwitch shares, so only the buckets are its own. It also
// pins the whole of a vSwitch's metrics with that one law registered.
func TestFirstLawFootprint(t *testing.T) {
	const n, lawLimit, allLimit = 200, 400, 1024
	ms := make([]*DatapathMetrics, n)
	var start, attached, registered runtime.MemStats
	runtime.ReadMemStats(&start)
	for i := range ms {
		ms[i] = newDatapathMetrics()
	}
	runtime.ReadMemStats(&attached)
	for _, m := range ms {
		m.registerVCC(vccDCTCP)
	}
	runtime.ReadMemStats(&registered)
	runtime.KeepAlive(ms)
	law := (registered.TotalAlloc - attached.TotalAlloc) / n
	all := (registered.TotalAlloc - start.TotalAlloc) / n
	t.Logf("%d B per vSwitch's metrics, %d B of them its first law's", all, law)
	if law > lawLimit || all > allLimit {
		t.Fatalf("a vSwitch's metrics allocate %d B with one law, that law %d B; want ≤ %d and ≤ %d", all, law, allLimit, lawLimit)
	}
}
