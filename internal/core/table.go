package core

import "acdc/internal/sim"

// slot is one entry of the flow table: the key's full hash and the record,
// or the zero slot. The hash is the tag; a probe that matches it confirms the
// key against f.Key, in the record's first line, which the caller reads next
// anyway. A hash's top bits pick a key's home slot.
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
// direction, two per TCP connection. The paper's OVS keeps flows in an RCU
// hash table with per-flow spinlocks because its datapath runs on every core;
// here the table belongs to the simulation goroutine, so it is one plain
// open-addressed array, which allocates nothing until its first record.
type Table struct {
	s sim.Slots[slot]
}

// NewTable creates an empty flow table.
func NewTable() *Table { return &Table{} }

// keyWords packs k into the two words hashWords takes.
func keyWords(k FlowKey) (w0, w1 uint64) {
	return uint64(k.Src)<<32 | uint64(k.Dst), uint64(k.SPort)<<16 | uint64(k.DPort)
}

// hashWords is the multiplicative hash (sim.HashWord) of the first key word's
// hash xor the second: each multiply carries every bit below upward, into the
// top bits that pick the home slot, so keys that differ only in a port — many
// connections between one host pair — spread as widely as any.
func hashWords(w0, w1 uint64) uint64 { return sim.HashWord(sim.HashWord(w0) ^ w1) }

// evictBuckets is how many buckets pressure eviction divides the flows into:
// one pass frees the evictable records of one bucket (evictForPressure).
const evictBuckets = 64

// evictBucket is k's eviction bucket: FNV-1a over the key words, its high
// half folded into the low bits a power-of-two count keeps, so keys that
// differ only in a port spread over the buckets. Independent of the table's
// hash, it fixes which records a pass frees whatever the table's layout.
func evictBucket(k FlowKey) int {
	const prime = 1099511628211
	w0, w1 := keyWords(k)
	h := uint64(14695981039346656037)
	h = (h ^ w0>>32) * prime
	h = (h ^ w0&0xffffffff) * prime
	h = (h ^ w1) * prime
	h ^= h >> 32
	h ^= h >> 16
	return int(h % evictBuckets)
}

// find returns k's hash and the position of its slot, or −1.
func (t *Table) find(k FlowKey) (h uint64, i int) {
	h = hashWords(keyWords(k))
	return h, t.s.Find(h, func(o slot) bool { return o.h == h && o.f.Key == k })
}

// Get returns the flow for k, or nil. It is find written out, so that the
// probe inlines here, on every packet's path.
func (t *Table) Get(k FlowKey) *Flow {
	h := hashWords(keyWords(k))
	if i := t.s.Find(h, func(o slot) bool { return o.h == h && o.f.Key == k }); i >= 0 {
		return t.s.At(i).f
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
	h, i := t.find(k)
	if i >= 0 {
		return t.s.At(i).f, false
	}
	f = init()
	t.s.Insert(h, slot{h: h, f: f}, slotHash)
	return f, true
}

// Len reports the entry count in O(1): the MaxFlows capacity check runs it on
// every flow create.
func (t *Table) Len() int { return t.s.Len() }

// Range calls fn for every flow; fn must not add to or remove from the table.
func (t *Table) Range(fn func(*Flow)) { t.s.Range(func(o slot) { fn(o.f) }) }

// Clear empties the table in place and returns how many flows were removed.
// The table keeps its identity, so every holder of the pointer sees it empty.
// It orphans whole records, links and all: no record left in the table, or
// added later, names one.
func (t *Table) Clear() int {
	removed := t.s.Len()
	t.s = sim.Slots[slot]{}
	return removed
}

// Sweep removes every flow keep rejects, in one pass over the table, and
// returns how many it removed. keep runs once per record
// (sim.Slots.DeleteFunc); it may probe the table, but not add to or remove
// from it.
func (t *Table) Sweep(keep func(*Flow) bool) int {
	return t.s.DeleteFunc(func(o slot) bool {
		if keep(o.f) {
			return false
		}
		unlink(o.f)
		return true
	}, slotHash)
}
