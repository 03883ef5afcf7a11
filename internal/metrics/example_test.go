package metrics_test

import (
	"fmt"

	"acdc/internal/metrics"
)

// Example shows the intended datapath pattern: resolve instruments once at
// setup, update them on the hot path, and snapshot them from the same
// goroutine.
func Example() {
	reg := metrics.NewRegistry()

	// Setup: resolve handles once (a map lookup; updates need none).
	pkts := reg.Counter("ingress_segments_total")
	flows := reg.Gauge("flow_table_size")
	cwnd := reg.Histogram("cwnd_bytes", metrics.ExponentialBounds(9000, 2, 4))

	// Hot path: one add per update.
	for i := 0; i < 1000; i++ {
		pkts.Inc()
	}
	flows.Set(2)
	cwnd.Observe(9000)
	cwnd.Observe(36000)

	// Between updates: snapshot and encode.
	snap := reg.Snapshot()
	fmt.Print(snap.Text())
	// Output:
	// ingress_segments_total 1000
	// flow_table_size 2
	// cwnd_bytes count=2 mean=2.25e+04 p50=9000 p99=3.564e+04
}
