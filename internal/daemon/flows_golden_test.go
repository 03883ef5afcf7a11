package daemon

import (
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"acdc/internal/core"
	"acdc/internal/sim"
)

var updateGoldens = flag.Bool("update", false, "rewrite the flow listing golden")

// TestFlowsGolden pins the flow listing (GET /v1/flows, every host) of a
// scripted run of the background workload on three hosts: a live policy on
// one flow, a warm restart of one host and a cold one of another, each
// followed by more traffic. The listing reads every record's sender state
// (window, α, snd_una, snd_nxt, resync), whichever kind of record holds it.
func TestFlowsGolden(t *testing.T) {
	d := New(Config{Hosts: 3, Workload: true})
	s := d.Net().Sim
	s.RunFor(30 * sim.Millisecond)
	var key core.FlowKey
	found := false
	d.Net().ACDC[0].Table.Range(func(f *core.Flow) { // the least key host 0 sends on
		if f.Key.Src == d.Net().Hosts[0].Addr && (!found || f.Key.Compare(key) < 0) {
			key, found = f.Key, true
		}
	})
	if !found {
		t.Fatal("host 0 sends on no flow")
	}
	if _, err := d.InstallPolicy(0, key, core.Policy{Beta: 0.5, RwndClampBytes: 60_000, VCC: "reno"}); err != nil {
		t.Fatal(err)
	}
	s.RunFor(20 * sim.Millisecond)
	if err := d.Restart(1, true); err != nil {
		t.Fatal(err)
	}
	s.RunFor(20 * sim.Millisecond)
	if err := d.Restart(2, false); err != nil {
		t.Fatal(err)
	}
	s.RunFor(20 * sim.Millisecond)

	rec := httptest.NewRecorder()
	d.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/flows", nil))
	if rec.Code != 200 {
		t.Fatalf("GET /v1/flows = %d %q", rec.Code, rec.Body)
	}
	path := filepath.Join("testdata", "flows.golden")
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, rec.Body.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got := rec.Body.String(); got != string(want) {
		t.Fatalf("flow listing differs from %s:\n got %s\nwant %s", path, got, want)
	}
}
