package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"acdc/internal/core"
	"acdc/internal/packet"
)

// FuzzPolicyStream drives POST /v1/policy with fuzzed NDJSON bodies, seeded
// with PolicyUpdate examples, against a daemon whose hosts already track the
// seeds' connection. The handler must never panic, and nothing unsanitized
// may get past it: every install it reports, every live override and every
// tracked flow's policy is a value Validate accepts and Sanitized leaves alone.
func FuzzPolicyStream(f *testing.F) {
	n := newPolicyDaemon().Net()
	a, b := n.Addr(0).String(), n.Addr(1).String()
	updates := []PolicyUpdate{
		{Host: 0, Src: a, Dst: b, SPort: 1000, DPort: 5001, Beta: 0.5},
		{Host: 0, Src: a, Dst: b, SPort: 1000, DPort: 5001, Beta: 0.2, RwndClampBytes: 64 << 10, VCC: "reno"},
		{Host: 1, Src: b, Dst: a, SPort: 5001, DPort: 1000, Disable: true},
		{Host: 0, Src: a, Dst: b, SPort: 1000, DPort: 5001, Beta: 0, RwndClampBytes: 1},
		{Host: 0, Src: a, Dst: b, SPort: 1000, DPort: 5001, Beta: 3},
		{Host: 0, Src: a, Dst: b, SPort: 1000, DPort: 5001, Beta: 1, VCC: "bbr"},
		{Host: 0, Src: a, Dst: b, SPort: 1000, DPort: 5001, Beta: 1, RwndClampBytes: -1},
		{Host: 7, Src: a, Dst: b, SPort: 1000, DPort: 5001, Beta: 1},
		{Host: 0, Src: "10.0.0", Dst: b, Beta: 1},
		{Host: 0, Src: a, Dst: b, SPort: 1000, DPort: 5001, Clear: true},
	}
	var stream bytes.Buffer
	for _, u := range updates {
		line, err := json.Marshal(u)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
		stream.Write(line)
		stream.WriteByte('\n')
	}
	f.Add(stream.Bytes())
	f.Add([]byte(`{"host":0,"src":"` + a + `","beta":`))
	f.Fuzz(func(t *testing.T, body []byte) {
		d := newPolicyDaemon()
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/policy", bytes.NewReader(body)))
		if strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
			var results []PolicyResult
			if err := json.Unmarshal(rec.Body.Bytes(), &results); err != nil {
				t.Fatalf("status %d with a body that is not a result list: %v", rec.Code, err)
			}
			for _, r := range results {
				if r.Installed != nil {
					checkSanitized(t, fmt.Sprintf("install %d", r.Index), *r.Installed)
				}
			}
		}
		for host, v := range d.Net().ACDC {
			for k, p := range v.PolicyOverrides() {
				checkSanitized(t, fmt.Sprintf("host %d override for %v", host, k), p)
			}
			v.Table.Range(func(f *core.Flow) {
				checkSanitized(t, fmt.Sprintf("host %d flow %v", host, f.Key), *f.Policy)
			})
		}
	})
}

// newPolicyDaemon builds an unstarted two-host daemon (no goroutines) whose
// vSwitches track the seeds' connection, one direction on each host.
func newPolicyDaemon() *Daemon {
	d := New(Config{Hosts: 2})
	n := d.Net()
	syn := func(host int, src, dst packet.Addr, sp, dp uint16) {
		n.ACDC[host].EgressPath(packet.Build(src, dst, packet.NotECT, packet.TCPFields{
			SrcPort: sp, DstPort: dp, Flags: packet.FlagSYN, Window: 65535}, 0))
	}
	syn(0, n.Addr(0), n.Addr(1), 1000, 5001)
	syn(1, n.Addr(1), n.Addr(0), 5001, 1000)
	return d
}

func checkSanitized(t *testing.T, what string, p core.Policy) {
	t.Helper()
	if err := p.Validate(); err != nil || p.Sanitized() != p {
		t.Fatalf("%s holds an unsanitized policy %+v (%v)", what, p, err)
	}
}
