package core

import (
	"testing"

	"acdc/internal/packet"
	"acdc/internal/sim"
)

func tbKey(i int) FlowKey {
	return FlowKey{
		Src:   packet.MakeAddr(10, 0, byte(i>>8), byte(i)),
		Dst:   packet.MakeAddr(10, 1, 0, 1),
		SPort: uint16(1000 + i),
		DPort: 80,
	}
}

// TestLenMatchesShardStats: the O(1) size counter must agree with a full
// shard scan through inserts, deletes, sweeps, and clears.
func TestLenMatchesShardStats(t *testing.T) {
	tab := NewTable()
	check := func(stage string) {
		t.Helper()
		total, maxShard := tab.ShardStats()
		if tab.Len() != total {
			t.Fatalf("%s: Len %d != ShardStats total %d", stage, tab.Len(), total)
		}
		if maxShard > total {
			t.Fatalf("%s: max shard %d > total %d", stage, maxShard, total)
		}
	}
	for i := 0; i < 500; i++ {
		k := tbKey(i)
		tab.GetOrCreate(k, func() *Flow { return &Flow{flowState: flowState{Key: k}} })
	}
	check("insert")
	for i := 0; i < 500; i += 3 {
		tab.Delete(tbKey(i))
	}
	tab.Delete(tbKey(9999)) // absent: must not drift the counter
	check("delete")
	n := 0
	tab.Sweep(func(*Flow) bool { n++; return n%2 == 0 })
	check("sweep")
	tab.SweepRange(10, 30, func(*Flow) bool { return false })
	check("sweep-range")
	tab.Clear()
	check("clear")
	if tab.Len() != 0 {
		t.Fatalf("Len %d after Clear", tab.Len())
	}
}

// TestPressureSweepRateLimited: with the table full of provably live flows, a
// storm of new keys must pay for one barren eviction scan, then fail open on
// the cooldown instead of re-scanning per packet — and must never displace
// the live residents. Once the residents go idle past GCInterval, the next
// create re-scans, evicts, and succeeds.
func TestPressureSweepRateLimited(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFlows = 8
	cfg.GCInterval = 100 * sim.Millisecond
	cfg.SweepInterval = 1000 * sim.Second // keep the timed sweep out of the way
	cfg.IdleTimeout = 1000 * sim.Second
	v, host, s := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)

	key := func(i int) FlowKey {
		return FlowKey{Src: host.Addr, Dst: peer, SPort: uint16(100 + i), DPort: 200}
	}
	for i := 0; i < cfg.MaxFlows; i++ {
		if v.flowFor(key(i)) == nil {
			t.Fatalf("flow %d not created below capacity", i)
		}
	}

	const storm = 100
	for i := 0; i < storm; i++ {
		if f := v.flowFor(key(1000 + i)); f != nil {
			t.Fatalf("create %d tracked past MaxFlows", i)
		}
	}
	st := v.Stats()
	if st.PressureSweeps != 1 {
		t.Fatalf("PressureSweeps %d, want 1 (cooldown must rate-limit barren scans)", st.PressureSweeps)
	}
	if st.FlowTableFull != storm {
		t.Fatalf("FlowTableFull %d, want %d (every miss counted)", st.FlowTableFull, storm)
	}
	if st.FailOpen != storm {
		t.Fatalf("FailOpen %d, want %d", st.FailOpen, storm)
	}
	if v.Table.Len() != cfg.MaxFlows {
		t.Fatalf("table len %d, want %d", v.Table.Len(), cfg.MaxFlows)
	}
	for i := 0; i < cfg.MaxFlows; i++ {
		if v.Table.Get(key(i)) == nil {
			t.Fatalf("live resident %d evicted by pressure", i)
		}
	}

	// Residents now idle past GCInterval: the cooldown has expired, so the
	// next create re-scans, evicts, and tracks the new flow.
	s.RunFor(2 * cfg.GCInterval)
	if f := v.flowFor(key(5000)); f == nil {
		t.Fatal("create failed open though every resident was idle-evictable")
	}
	st = v.Stats()
	if st.PressureSweeps != 2 {
		t.Fatalf("PressureSweeps %d after idle eviction, want 2", st.PressureSweeps)
	}
	if st.FlowsEvicted == 0 {
		t.Fatal("FlowsEvicted not counted")
	}
	if v.Table.Len() > cfg.MaxFlows {
		t.Fatalf("table len %d exceeds MaxFlows after eviction", v.Table.Len())
	}
}

// TestPressureSweepCursorSpreads: consecutive pressure scans resume from the
// round-robin cursor instead of rescanning shard 0, so eviction cost spreads
// across the table. Observable effect: two scans with evictable entries in
// different shards both stop early (each frees something), and together they
// free entries from more than one shard.
func TestPressureSweepCursorSpreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFlows = 4
	cfg.GCInterval = 100 * sim.Millisecond
	cfg.SweepInterval = 1000 * sim.Second
	cfg.IdleTimeout = 1000 * sim.Second
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	// Pick resident keys that provably span several shards, so a scan that
	// stopped at its first shard could not have evicted them all.
	var resident []FlowKey
	seen := map[int]bool{}
	for port := uint16(100); len(resident) < cfg.MaxFlows; port++ {
		k := FlowKey{Src: host.Addr, Dst: peer, SPort: port, DPort: 200}
		if s := shardIndex(k); !seen[s] {
			seen[s] = true
			resident = append(resident, k)
		}
	}
	// Fill to capacity and close every resident (closed = always evictable).
	for i, k := range resident {
		f := v.flowFor(k)
		if f == nil {
			t.Fatalf("flow %d not created", i)
		}
		f.mu.Lock()
		f.finFwd, f.finRev = true, true
		f.mu.Unlock()
	}
	// Each create under pressure scans from the cursor and stops at the first
	// shard that frees anything; the cursor then resumes past it, so
	// successive scans free entries from distinct shards (4 rounds cannot
	// wrap 64 shards). Every create must succeed — something closed is always
	// evictable — and the bound must hold throughout.
	closed := append([]FlowKey(nil), resident...)
	for i := 0; i < cfg.MaxFlows; i++ {
		k := FlowKey{Src: host.Addr, Dst: peer, SPort: uint16(9000 + i), DPort: 200}
		f := v.flowFor(k)
		if f == nil {
			t.Fatalf("create %d failed open with closed flows evictable", i)
		}
		if v.Table.Len() > cfg.MaxFlows {
			t.Fatalf("table len %d exceeds MaxFlows mid-storm", v.Table.Len())
		}
		f.mu.Lock()
		f.finFwd, f.finRev = true, true
		f.mu.Unlock()
		closed = append(closed, k)
	}
	evictedShards := map[int]bool{}
	evicted := 0
	for _, k := range closed {
		if v.Table.Get(k) == nil {
			evicted++
			evictedShards[shardIndex(k)] = true
		}
	}
	if evicted < cfg.MaxFlows {
		t.Fatalf("%d entries evicted, want at least %d", evicted, cfg.MaxFlows)
	}
	if len(evictedShards) < 2 {
		t.Fatalf("evictions all came from one shard; cursor is not advancing (shards: %v)", evictedShards)
	}
	if st := v.Stats(); st.PressureSweeps == 0 {
		t.Fatal("no pressure sweeps recorded")
	}
}

// TestUpdateTableGauges: the control-plane shape snapshot must agree with the
// table and register its gauges in the metrics registry.
func TestUpdateTableGauges(t *testing.T) {
	v, host, _ := loneVSwitch(t, DefaultConfig())
	peer := packet.MakeAddr(10, 0, 0, 2)
	for i := 0; i < 10; i++ {
		v.flowFor(FlowKey{Src: host.Addr, Dst: peer, SPort: uint16(100 + i), DPort: 200})
	}
	shape := v.UpdateTableGauges()
	if shape.Flows != 10 || shape.Flows != v.Table.Len() {
		t.Fatalf("shape.Flows %d, table len %d, want 10", shape.Flows, v.Table.Len())
	}
	if shape.ShardMax < 1 || shape.ShardMax > 10 {
		t.Fatalf("shape.ShardMax %d out of range", shape.ShardMax)
	}
	if shape.ImbalancePermille < 1000 {
		t.Fatalf("imbalance %d below the balanced floor of 1000", shape.ImbalancePermille)
	}
	snap := v.Metrics.Snapshot()
	if got := snap.Gauge("flow_table_occupancy"); got != 10 {
		t.Fatalf("flow_table_occupancy gauge %d, want 10", got)
	}
	if got := snap.Gauge("flow_table_shard_max"); got != int64(shape.ShardMax) {
		t.Fatalf("flow_table_shard_max gauge %d, want %d", got, shape.ShardMax)
	}
	if got := snap.Gauge("flow_table_shard_imbalance_permille"); got != shape.ImbalancePermille {
		t.Fatalf("imbalance gauge %d, want %d", got, shape.ImbalancePermille)
	}
}
