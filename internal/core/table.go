package core

import "acdc/internal/sim"

// numShards for the flow table. The paper's OVS keeps flows in an RCU hash
// table with per-flow spinlocks because its datapath runs on every core. Here
// one simulation goroutine owns the table, so each shard is a plain
// sim.Slots array; the shards stay because they fix the order eviction and
// the sharded GC tick walk the records in.
const numShards = 64

// slot is one entry of a shard: the key's full hash and the record, or the
// zero slot. The hash is the tag; a probe that matches it confirms the key
// against f.Key, in the record's first line, which the caller reads next
// anyway. A hash's top bits pick a key's home slot (its low bits picked the
// shard).
type slot struct {
	h uint64
	f *Flow
}

// slotHash is a slot's hash, which the slot keeps.
func slotHash(s slot) uint64 { return s.h }

// unlink clears the link between f and its reverse flow, both ends
// (Table.reverseOf), as f leaves the table.
func unlink(f *Flow) {
	if f.peer != nil {
		f.peer.peer, f.peer = nil, nil
	}
}

// Table is the vSwitch's connection-tracking table: one entry per data
// direction, two per TCP connection. It belongs to the simulation goroutine.
type Table struct {
	shards [numShards]*sim.Slots[slot] // nil until the shard's first record

	// size counts entries across all shards, so Len — which the datapath
	// consults on every flow create under MaxFlows — does not scan shards.
	size int
}

// NewTable creates an empty flow table.
func NewTable() *Table { return &Table{} }

// keyWords packs k into the two words hashWords takes.
func keyWords(k FlowKey) (w0, w1 uint64) {
	return uint64(k.Src)<<32 | uint64(k.Dst), uint64(k.SPort)<<16 | uint64(k.DPort)
}

// hashWords is FNV-1a over the tuple, given as its key words. The raw FNV
// multiply only carries entropy upward, so the low bits — all a power-of-two
// shard count keeps — would ignore every input bit above ~6; flows differing
// only in source port (many connections between one host pair, the common
// datacenter shape) would then pile into a single shard. The xor-fold
// finalizer mixes the high half back down before reduction.
func hashWords(w0, w1 uint64) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	h = (h ^ w0>>32) * prime
	h = (h ^ w0&0xffffffff) * prime
	h = (h ^ w1) * prime
	h ^= h >> 32
	h ^= h >> 16
	return h
}

// find returns k's hash, its shard and the position of its slot there, or
// −1.
func (t *Table) find(k FlowKey) (h uint64, s *sim.Slots[slot], i int) {
	h = hashWords(keyWords(k))
	s = t.shards[h%numShards]
	return h, s, s.Find(h, func(o slot) bool { return o.h == h && o.f.Key == k })
}

// Get returns the flow for k, or nil. It is find written out, so that the
// probe inlines here, on every packet's path.
func (t *Table) Get(k FlowKey) *Flow {
	h := hashWords(keyWords(k))
	s := t.shards[h%numShards]
	if i := s.Find(h, func(o slot) bool { return o.h == h && o.f.Key == k }); i >= 0 {
		return s.At(i).f
	}
	return nil
}

// reverseOf returns the flow tracking the opposite direction of f, exactly
// what Get(f.Key.Reverse()) would return, through the link f carries: every
// TCP packet consults both directions of its connection, and the second one
// is always the reverse of the flow just found, so the link saves that probe.
// f must be in the table. The link is mutual — f.peer is nil, or the reverse
// record with its peer pointing back — and a removal unlinks both ends, so a
// link is never stale. A nil peer is never trusted (the reverse flow may have
// been created since): it costs one probe, and a hit links both ends.
func (t *Table) reverseOf(f *Flow) *Flow {
	if f.peer == nil {
		if r := t.Get(f.Key.Reverse()); r != nil {
			f.peer, r.peer = r, f
		}
	}
	return f.peer
}

// GetOrCreate returns the flow for k, creating it with init if absent.
// created reports whether init ran. init may probe the table, but not add to
// or remove from it.
func (t *Table) GetOrCreate(k FlowKey, init func() *Flow) (f *Flow, created bool) {
	h, s, i := t.find(k)
	if i >= 0 {
		return s.At(i).f, false
	}
	f = init()
	if s == nil {
		s = new(sim.Slots[slot])
		t.shards[h%numShards] = s
	}
	s.Insert(h, slot{h: h, f: f}, slotHash)
	t.size++
	return f, true
}

// Len reports the entry count in O(1): the MaxFlows capacity check runs it on
// every flow create, so it must not scan shards.
func (t *Table) Len() int { return t.size }

// ShardStats scans the shards once and reports the total entry count plus the
// longest shard, for the occupancy and imbalance gauges. Control-plane use
// only; the datapath never calls it.
func (t *Table) ShardStats() (total, maxShard int) {
	for _, s := range t.shards {
		n := s.Len()
		total += n
		maxShard = max(maxShard, n)
	}
	return total, maxShard
}

// Range calls fn for every flow; fn must not add to or remove from the table.
func (t *Table) Range(fn func(*Flow)) {
	for _, s := range t.shards {
		s.Range(func(o slot) { fn(o.f) })
	}
}

// Clear empties every shard in place and returns how many flows were removed.
// The table keeps its identity, so every holder of the pointer sees it empty.
// It orphans whole records, links and all: no record left in the table, or
// added later, names one.
func (t *Table) Clear() int {
	removed := t.size
	t.shards = [numShards]*sim.Slots[slot]{}
	t.size = 0
	return removed
}

// SweepShard sweeps one shard: the unit of incremental pressure eviction.
// keep may probe the table, but not add to or remove from it. keep runs once
// per record (sim.Slots.DeleteFunc).
func (t *Table) SweepShard(i int, keep func(*Flow) bool) int {
	removed := t.shards[i].DeleteFunc(func(o slot) bool {
		if keep(o.f) {
			return false
		}
		unlink(o.f)
		return true
	}, slotHash)
	t.size -= removed
	return removed
}

// SweepRange sweeps shards [lo, hi): the unit of the sharded GC tick, which
// walks the table one shard-group at a time instead of all 64 shards in one
// timer callback.
func (t *Table) SweepRange(lo, hi int, keep func(*Flow) bool) int {
	removed := 0
	for i := lo; i < hi; i++ {
		removed += t.SweepShard(i, keep)
	}
	return removed
}
