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

// TestLenMatchesRange: the O(1) entry count must agree with a full walk of
// the table through inserts, deletes, sweeps, and clears.
func TestLenMatchesRange(t *testing.T) {
	tab := NewTable()
	check := func(stage string) {
		t.Helper()
		if n := len(tableFlows(tab)); tab.Len() != n {
			t.Fatalf("%s: Len %d, Range visits %d", stage, tab.Len(), n)
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
	tab.Sweep(func(*Flow) bool { n++; return n%2 == 0 })
	check("sweep")
	tab.Sweep(func(*Flow) bool { return true })
	check("barren sweep")
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
		if v.flowFor(key(i), true) == nil {
			t.Fatalf("flow %d not created below capacity", i)
		}
	}

	const storm = 100
	for i := 0; i < storm; i++ {
		if f := v.flowFor(key(1000+i), true); f != nil {
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
	if f := v.flowFor(key(5000), true); f == nil {
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

// TestPressureSweepCursorSpreads: consecutive pressure passes resume from the
// round-robin cursor instead of restarting at bucket 0, and each frees only
// the first eviction bucket that holds anything evictable. Observable effect:
// with closed residents in distinct buckets, each create frees exactly one
// of them, and together they free records from more than one bucket.
func TestPressureSweepCursorSpreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxFlows = 4
	cfg.GCInterval = 100 * sim.Millisecond
	cfg.SweepInterval = 1000 * sim.Second
	cfg.IdleTimeout = 1000 * sim.Second
	v, host, _ := loneVSwitch(t, cfg)
	peer := packet.MakeAddr(10, 0, 0, 2)
	// Pick resident keys that provably span several buckets, so a pass that
	// frees one bucket cannot evict them all.
	var resident []FlowKey
	seen := map[int]bool{}
	for port := uint16(100); len(resident) < cfg.MaxFlows; port++ {
		k := FlowKey{Src: host.Addr, Dst: peer, SPort: port, DPort: 200}
		if s := evictBucket(k); !seen[s] {
			seen[s] = true
			resident = append(resident, k)
		}
	}
	// Fill to capacity and close every resident (closed = always evictable).
	for i, k := range resident {
		f := v.flowFor(k, true)
		if f == nil {
			t.Fatalf("flow %d not created", i)
		}
		f.finFwd, f.finRev = true, true
	}
	// Each create under pressure frees the first bucket from the cursor that
	// holds anything evictable; the cursor then resumes past it, so
	// successive passes free entries from distinct buckets (4 rounds cannot
	// wrap 64 buckets). Every create must succeed — something closed is
	// always evictable — and the bound must hold throughout.
	closed := append([]FlowKey(nil), resident...)
	for i := 0; i < cfg.MaxFlows; i++ {
		k := FlowKey{Src: host.Addr, Dst: peer, SPort: uint16(9000 + i), DPort: 200}
		f := v.flowFor(k, true)
		if f == nil {
			t.Fatalf("create %d failed open with closed flows evictable", i)
		}
		if v.Table.Len() > cfg.MaxFlows {
			t.Fatalf("table len %d exceeds MaxFlows mid-storm", v.Table.Len())
		}
		if st := v.Stats(); i == 0 && st.FlowsEvicted != 1 {
			t.Fatalf("the first pass evicted %d records, want the one resident of its bucket", st.FlowsEvicted)
		}
		f.finFwd, f.finRev = true, true
		closed = append(closed, k)
	}
	evictedBuckets := map[int]bool{}
	evicted := 0
	for _, k := range closed {
		if v.Table.Get(k) == nil {
			evicted++
			evictedBuckets[evictBucket(k)] = true
		}
	}
	if evicted < cfg.MaxFlows {
		t.Fatalf("%d entries evicted, want at least %d", evicted, cfg.MaxFlows)
	}
	if len(evictedBuckets) < 2 {
		t.Fatalf("evictions all came from one bucket; cursor is not advancing (buckets: %v)", evictedBuckets)
	}
	if st := v.Stats(); st.PressureSweeps == 0 {
		t.Fatal("no pressure sweeps recorded")
	}
}

// tableKeys is the key domain of the index scripts: 128 keys, enough to grow
// the index from 8 slots to 256.
var tableKeys = func() []FlowKey {
	ks := make([]FlowKey, 128)
	for i := range ks {
		ks[i] = tbKey(i)
	}
	return ks
}()

// checkIndex asserts what every probe relies on: the slot array's shape
// (sim.Slots.Check), and every record sitting under its key's hash and found
// from its key. It returns how many records sit past the array's end from
// their home slot, at a lower index.
func checkIndex(t *testing.T, tb *Table, after string) (wrapped int) {
	t.Helper()
	wrapped, err := tb.s.Check(slotHash)
	if err != nil {
		t.Fatalf("after %s: %v", after, err)
	}
	tb.s.Range(func(sl slot) {
		if sl.f == nil {
			t.Fatalf("after %s: hash %x holds no record", after, sl.h)
		}
		if h := hashWords(keyWords(sl.f.Key)); sl.h != h || tb.Get(sl.f.Key) != sl.f {
			t.Fatalf("after %s: hash %x held for %v, whose hash is %x, and Get finds %p for %p",
				after, sl.h, sl.f.Key, h, tb.Get(sl.f.Key), sl.f)
		}
	})
	return wrapped
}

// playTableScript runs a byte script of (op, key) pairs over the key domain
// keys against a Table and a map model, comparing the two after every step.
// It returns the most records seen wrapped past an array's end at once.
func playTableScript(t *testing.T, keys []FlowKey, script []byte) (maxWrapped int) {
	tb := NewTable()
	model := map[FlowKey]*Flow{}
	names := [...]string{"get", "get-or-create", "get-or-create", "delete", "sweep", "clear", "range"}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := int(script[i])%len(names), script[i+1]
		k := keys[int(arg)%len(keys)]
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
		case "sweep":
			keep := func(f *Flow) bool { return (f.Key.SPort+uint16(arg))%3 != 0 }
			n, held := 0, len(model)
			for mk, f := range model {
				if !keep(f) {
					delete(model, mk)
					n++
				}
			}
			kept := map[*Flow]int{}
			got := tb.Sweep(func(f *Flow) bool {
				kept[f]++
				return keep(f)
			})
			if got != n {
				t.Fatalf("step %d: Sweep removed %d, model %d", i/2, got, n)
			}
			if len(kept) != held {
				t.Fatalf("step %d: Sweep asked keep about %d records, the table held %d", i/2, len(kept), held)
			}
			for f, calls := range kept {
				if calls != 1 {
					t.Fatalf("step %d: Sweep asked keep about %v %d times", i/2, f.Key, calls)
				}
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
		for _, k := range keys {
			if got := tb.Get(k); got != model[k] {
				t.Fatalf("step %d (%s): Get(%v) = %p, model %p", i/2, names[op], k, got, model[k])
			}
		}
		if tb.Len() != len(model) {
			t.Fatalf("step %d (%s): Len %d, model %d", i/2, names[op], tb.Len(), len(model))
		}
		maxWrapped = max(maxWrapped, checkIndex(t, tb, names[op]))
	}
	return maxWrapped
}

// tableScript draws a script that grows the table through its doublings, then
// churns it with deletes and sweeps, each of which shifts records back.
func tableScript(rng *rand.Rand, n int) []byte {
	script := make([]byte, 0, 2*n)
	for i := 0; i < n; i++ {
		op := rng.Intn(7)
		if i < n/2 && op != 5 {
			op = 1 // mostly creates first: the grow path
		} else if op == 5 && rng.Intn(8) != 0 {
			op = 3 // Clear is rare, deletes are not: the backward-shift path
		}
		script = append(script, byte(op), byte(rng.Intn(256)))
	}
	return script
}

// FuzzTableMatchesMap drives the index with a fuzzed script of Get,
// GetOrCreate, Delete, Sweep, Clear and Range against a map model.
func FuzzTableMatchesMap(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(tableScript(rand.New(rand.NewSource(seed)), 400))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1200 {
			script = script[:1200]
		}
		playTableScript(t, tableKeys, script)
	})
}

// TestTableScriptWrapsArrayEnd plays seeded scripts over keys whose
// home slots lie in the last quarter of any array, plus a few homed in the
// first eighth: the records fill the array's last slots and wrap past its
// end, in among records homed there, so removals shift records back across
// the end and sweeps start from an empty slot in the middle of the array.
func TestTableScriptWrapsArrayEnd(t *testing.T) {
	var keys []FlowKey
	tail, head := 0, 0
	for i := 0; tail < 24 || head < 8; i++ {
		k := tbKey(i)
		switch top := hashWords(keyWords(k)) >> 61; {
		case top >= 6 && tail < 24:
			tail++
			keys = append(keys, k)
		case top == 0 && head < 8:
			head++
			keys = append(keys, k)
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		if w := playTableScript(t, keys, tableScript(rand.New(rand.NewSource(seed)), 600)); w == 0 {
			t.Errorf("seed %d: no record ever wrapped past the array's end", seed)
		}
	}
}

// TestFlowPolicyMayProbeTable: flow set-up runs the operator's FlowPolicy
// before the new flow is in the table; a callback may probe the table, the
// new flow's own key included.
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
// ranges, clears and restores — land between the datapath's
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
	var snap []flowRecord
	for i := 0; i < 400; i++ {
		i := i
		b.s.ScheduleFunc(sim.Duration(i)*37*sim.Microsecond+1, func() {
			k := b.key(uint16(1000 + i%300))
			if f := b.v.Table.Get(k); f != nil && f.Key != k {
				t.Errorf("Get(%v) returned the record of %v", k, f.Key)
			}
			b.v.Table.Get(k.Reverse())
			b.v.Table.Range(func(f *Flow) { _ = f.CwndBytes })
			switch i % 50 {
			case 10:
				snap = b.v.SaveSnapshot()
			case 20:
				b.v.RestoreSnapshot(snap)
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
	if n := len(tableFlows(b.v.Table)); n != b.v.Table.Len() {
		t.Fatalf("Range visits %d, Len %d", n, b.v.Table.Len())
	}
	for _, f := range tableFlows(b.v.Table) {
		if b.v.Table.Get(f.Key) != f {
			t.Fatalf("%v is in the index but not found from its key", f.Key)
		}
	}
	checkIndex(t, b.v.Table, "concurrent readers")
}
