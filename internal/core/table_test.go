package core

import (
	"math/rand"
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
		tab.GetOrCreate(k, func() *Flow { return &Flow{Key: k} })
	}
	check("insert")
	for i := 0; i < 500; i += 3 {
		tab.Delete(tbKey(i))
	}
	tab.Delete(tbKey(9999)) // absent: must not drift the counter
	check("delete")
	n := 0
	tab.SweepRange(0, numShards, func(*Flow) bool { n++; return n%2 == 0 })
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
		f.finFwd, f.finRev = true, true
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
		f.finFwd, f.finRev = true, true
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

// tableKeys is the key domain of the index scripts: 96 keys that share shard
// 0, enough to grow its index from 8 slots to 128, and 32 in other shards.
var tableKeys = func() []FlowKey {
	var ks []FlowKey
	for i := 0; len(ks) < 128; i++ {
		k := tbKey(i)
		if (shardIndex(k) == 0) == (len(ks) < 96) {
			ks = append(ks, k)
		}
	}
	return ks
}()

// checkIndex asserts what every probe relies on, shard by shard: the
// live and used counts match the slots, at most three quarters of the array
// is in use (so every probe meets an empty slot), and every record is found
// from its key.
func checkIndex(t *testing.T, tb *Table, after string) {
	t.Helper()
	for i := range tb.shards {
		s := &tb.shards[i]
		ix := s.ix
		if ix == nil {
			if s.live != 0 || s.used != 0 {
				t.Fatalf("after %s: shard %d counts %d/%d with no index", after, i, s.live, s.used)
			}
			continue
		}
		live, tomb := 0, 0
		for j := range ix.slots {
			sl := &ix.slots[j]
			switch {
			case sl.f != nil:
				live++
				if got := ix.find(sl.k0, sl.k1, hashWords(sl.k0, sl.k1)); got != j {
					t.Fatalf("after %s: shard %d slot %d is found at %d", after, i, j, got)
				}
			case sl.k1 == tombstone:
				tomb++
			}
		}
		if live != s.live || live+tomb != s.used || 4*s.used > 3*len(ix.slots) {
			t.Fatalf("after %s: shard %d has %d records, %d tombstones in %d slots; counts %d live, %d used",
				after, i, live, tomb, len(ix.slots), s.live, s.used)
		}
	}
}

// playTableScript runs a byte script of (op, key) pairs against a Table and a
// map model, comparing the two after every step.
func playTableScript(t *testing.T, script []byte) {
	tb := NewTable()
	model := map[FlowKey]*Flow{}
	names := [...]string{"get", "get-or-create", "get-or-create", "delete", "sweep-shard", "clear", "range"}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := int(script[i])%len(names), script[i+1]
		k := tableKeys[int(arg)%len(tableKeys)]
		switch names[op] {
		case "get":
		case "get-or-create":
			f, created := tb.GetOrCreate(k, func() *Flow { return &Flow{Key: k} })
			if want := model[k]; created != (want == nil) || (want != nil && f != want) {
				t.Fatalf("step %d: GetOrCreate(%v) = %p, created %v; model has %p", i/2, k, f, created, want)
			}
			model[k] = f
		case "delete":
			tb.Delete(k)
			delete(model, k)
		case "sweep-shard":
			keep := func(f *Flow) bool { return (f.Key.SPort+uint16(arg))%3 != 0 }
			n := 0
			for mk, f := range model {
				if shardIndex(mk) == shardIndex(k) && !keep(f) {
					delete(model, mk)
					n++
				}
			}
			if got := tb.SweepShard(shardIndex(k), keep); got != n {
				t.Fatalf("step %d: SweepShard removed %d, model %d", i/2, got, n)
			}
		case "clear":
			if got := tb.Clear(); got != len(model) {
				t.Fatalf("step %d: Clear removed %d, model held %d", i/2, got, len(model))
			}
			clear(model)
		case "range":
			seen := map[*Flow]bool{}
			tb.Range(func(f *Flow) {
				if seen[f] || model[f.Key] != f {
					t.Fatalf("step %d: Range visited %v (%p) twice or off the model", i/2, f.Key, f)
				}
				seen[f] = true
			})
			if len(seen) != len(model) {
				t.Fatalf("step %d: Range visited %d, model holds %d", i/2, len(seen), len(model))
			}
		}
		for _, k := range tableKeys {
			if got := tb.Get(k); got != model[k] {
				t.Fatalf("step %d (%s): Get(%v) = %p, model %p", i/2, names[op], k, got, model[k])
			}
		}
		if total, _ := tb.ShardStats(); tb.Len() != len(model) || total != len(model) {
			t.Fatalf("step %d (%s): Len %d, ShardStats %d, model %d", i/2, names[op], tb.Len(), total, len(model))
		}
		checkIndex(t, tb, names[op])
	}
}

// tableScript draws a script that grows shard 0 through its doublings, then
// churns it with deletes and sweeps until it is mostly tombstones.
func tableScript(rng *rand.Rand, n int) []byte {
	script := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		op := rng.Intn(7)
		if i < n/2 && op != 5 {
			op = 1 // mostly creates first: the grow path
		} else if op == 5 && rng.Intn(8) != 0 {
			op = 3 // Clear is rare, deletes are not: the tombstone path
		}
		script = append(script, byte(op), byte(rng.Intn(256)))
	}
	return script
}

// FuzzTableMatchesMap drives the index with a fuzzed script of Get,
// GetOrCreate, Delete, SweepShard, Clear and Range against a map model.
func FuzzTableMatchesMap(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(tableScript(rand.New(rand.NewSource(seed)), 400))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1200 {
			script = script[:1200]
		}
		playTableScript(t, script)
	})
}

// TestFlowPolicyMayProbeTable: flow set-up runs the operator's FlowPolicy
// before the new flow is in the table; a callback may probe the table, the
// new flow's shard included.
func TestFlowPolicyMayProbeTable(t *testing.T) {
	cfg := DefaultConfig()
	var v *VSwitch
	probes := 0
	cfg.FlowPolicy = func(k FlowKey) Policy {
		if v.Table.Get(k) != nil {
			t.Errorf("%v is in the table before its FlowPolicy returned", k)
		}
		v.Table.Get(k.Reverse())
		probes++
		return DefaultPolicy()
	}
	v, host, _ := loneVSwitch(t, cfg)
	egress(v, dataPkt(host.Addr, packet.MakeAddr(10, 0, 0, 2), 100, 200, 1, 100))
	if probes != 1 || v.Table.Len() != 1 {
		t.Fatalf("%d FlowPolicy calls, %d flows; want 1 and 1", probes, v.Table.Len())
	}
}

// TestTableConcurrentReaders: control-plane reads and writes — probes,
// ranges, shard scans, clears and restores — land between the datapath's
// packets, the way the daemon's command queue delivers them, while the
// datapath creates flows, the sweep timer removes them and new flows take
// their records back. The index must stay whole throughout.
func TestTableConcurrentReaders(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SweepInterval = 80 * sim.Microsecond
	b := newRecycleBench(t, cfg)
	rounds := 0
	var tick func()
	tick = func() {
		b.cycle(uint16(1000 + rounds%300))
		if rounds++; rounds < 3000 {
			b.s.ScheduleFunc(5*sim.Microsecond, tick)
		}
	}
	b.s.ScheduleFunc(0, tick)

	// One control operation every 37 µs, staggered against the cycles.
	var snap []byte
	for i := 0; i < 400; i++ {
		i := i
		b.s.ScheduleFunc(sim.Duration(i)*37*sim.Microsecond+1, func() {
			k := b.key(uint16(1000 + i%300))
			if f := b.v.Table.Get(k); f != nil && f.Key != k {
				t.Errorf("Get(%v) returned the record of %v", k, f.Key)
			}
			b.v.Table.Get(k.Reverse())
			b.v.Table.Range(func(f *Flow) { _ = f.CwndBytes })
			b.v.Table.ShardStats()
			switch i % 50 {
			case 10:
				snap = b.v.SaveSnapshot()
			case 20:
				if err := b.v.RestoreSnapshot(snap); err != nil {
					t.Errorf("restore: %v", err)
				}
			case 30:
				b.v.Table.Clear()
			}
			checkIndex(t, b.v.Table, "a control operation")
		})
	}
	b.s.RunAll()
	if b.v.ParkedFlows() == 0 && b.v.Stats().FlowsRemoved == 0 {
		t.Fatal("the datapath never swept: nothing was recycled under the readers")
	}
	total, _ := b.v.Table.ShardStats()
	if total != b.v.Table.Len() {
		t.Fatalf("ShardStats %d, Len %d", total, b.v.Table.Len())
	}
	for _, f := range tableFlows(b.v.Table) {
		if b.v.Table.Get(f.Key) != f {
			t.Fatalf("%v is in the index but not found from its key", f.Key)
		}
	}
	checkIndex(t, b.v.Table, "concurrent readers")
}
