package core

import "math/bits"

// numShards for the flow table. The paper's OVS keeps flows in an RCU hash
// table with per-flow spinlocks because its datapath runs on every core. Here
// one simulation goroutine owns the table, so each shard is a plain
// open-addressed, linear-probe slot array; the shards stay because they fix
// the order eviction and the sharded GC tick walk the records in.
const numShards = 64

// slot is one entry of a shard's index: the key's full hash and the record,
// or the zero slot. The hash is the tag; a probe that matches it confirms the
// key against f.Key, in the record's first line, which the caller reads next
// anyway.
type slot struct {
	h uint64
	f *Flow
}

// index is one shard's slot array. A hash's top bits pick a key's home slot
// (its low bits picked the shard). No probe path crosses an empty slot, as a
// delete shifts the records after it back (delete).
type index struct {
	slots []slot
	shift uint // 64 − log2(len(slots))
}

// find returns the slot holding k, whose hash is h, or −1. At most three
// quarters of the array is in use, so every probe meets an empty slot.
func (ix *index) find(k FlowKey, h uint64) int {
	if ix == nil {
		return -1
	}
	mask := len(ix.slots) - 1
	for i := int(h >> ix.shift); ix.slots[i].f != nil; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.h == h && s.f.Key == k {
			return i
		}
	}
	return -1
}

// free returns the first empty slot on hash h's probe path.
func (ix *index) free(h uint64) int {
	i := int(h >> ix.shift)
	for ix.slots[i].f != nil {
		i = (i + 1) & (len(ix.slots) - 1)
	}
	return i
}

// delete empties slot i by backward shift (Knuth vol. 3, 6.4, Algorithm R):
// up to the next empty slot, every record whose home slot does not lie
// cyclically after the gap moves back into it, and leaves a gap of its own.
func (ix *index) delete(i int) {
	mask := len(ix.slots) - 1
	for j := (i + 1) & mask; ix.slots[j].f != nil; j = (j + 1) & mask {
		if home := int(ix.slots[j].h >> ix.shift); (j-home)&mask >= (j-i)&mask {
			ix.slots[i], i = ix.slots[j], j
		}
	}
	ix.slots[i] = slot{}
}

// tableShard is one shard of the index.
type tableShard struct {
	ix   *index
	live int // records
}

// insert adds a record for a key the shard does not hold. Past three quarters
// of the array in use, the records move to a fresh array, the smallest power
// of two at least twice their number.
func (s *tableShard) insert(h uint64, f *Flow) {
	ix := s.ix
	if ix == nil || 4*(s.live+1) > 3*len(ix.slots) {
		n := 8
		for n < 2*(s.live+1) {
			n *= 2
		}
		next := &index{slots: make([]slot, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
		for i := 0; ix != nil && i < len(ix.slots); i++ {
			if o := ix.slots[i]; o.f != nil {
				next.slots[next.free(o.h)] = o
			}
		}
		ix = next
		s.ix = ix
	}
	s.live++
	ix.slots[ix.free(h)] = slot{h: h, f: f}
}

// remove deletes slot i and unlinks its record from the reverse flow, both
// ends (Table.reverseOf).
func (s *tableShard) remove(i int) {
	if f := s.ix.slots[i].f; f.peer != nil {
		f.peer.peer, f.peer = nil, nil
	}
	s.live--
	s.ix.delete(i)
}

// Table is the vSwitch's connection-tracking table: one entry per data
// direction, two per TCP connection. It belongs to the simulation goroutine.
type Table struct {
	shards [numShards]tableShard

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

// shardIndex hashes k down to a shard number.
func shardIndex(k FlowKey) int { return int(hashWords(keyWords(k)) % numShards) }

// locate returns k's hash and its shard.
func (t *Table) locate(k FlowKey) (h uint64, s *tableShard) {
	h = hashWords(keyWords(k))
	return h, &t.shards[h%numShards]
}

// Get returns the flow for k, or nil.
func (t *Table) Get(k FlowKey) *Flow {
	h, s := t.locate(k)
	if i := s.ix.find(k, h); i >= 0 {
		return s.ix.slots[i].f
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
	h, s := t.locate(k)
	if i := s.ix.find(k, h); i >= 0 {
		return s.ix.slots[i].f, false
	}
	f = init()
	s.insert(h, f)
	t.size++
	return f, true
}

// Delete removes the flow for k.
func (t *Table) Delete(k FlowKey) {
	h, s := t.locate(k)
	if i := s.ix.find(k, h); i >= 0 {
		s.remove(i)
		t.size--
	}
}

// Len reports the entry count in O(1): the MaxFlows capacity check runs it on
// every flow create, so it must not scan shards.
func (t *Table) Len() int { return t.size }

// ShardStats scans the shards once and reports the total entry count plus the
// longest shard, for the occupancy and imbalance gauges. Control-plane use
// only; the datapath never calls it.
func (t *Table) ShardStats() (total, maxShard int) {
	for i := range t.shards {
		n := t.shards[i].live
		total += n
		maxShard = max(maxShard, n)
	}
	return total, maxShard
}

// Range calls fn for every flow; fn must not add to or remove from the table.
func (t *Table) Range(fn func(*Flow)) {
	for i := range t.shards {
		for j := 0; t.shards[i].ix != nil && j < len(t.shards[i].ix.slots); j++ {
			if f := t.shards[i].ix.slots[j].f; f != nil {
				fn(f)
			}
		}
	}
}

// Clear empties every shard in place and returns how many flows were removed.
// The table keeps its identity, so every holder of the pointer sees it empty.
// It orphans whole records, links and all: no record left in the table, or
// added later, names one.
func (t *Table) Clear() int {
	removed := t.size
	t.shards = [numShards]tableShard{}
	t.size = 0
	return removed
}

// SweepShard sweeps one shard: the unit of incremental pressure eviction.
// keep may probe the table, but not add to or remove from it. The walk starts
// just past an empty slot, which no probe path crosses, so no removal shifts a
// record across the start; after a removal the same slot is examined again,
// as a later record may have shifted into it. keep runs once per record.
func (t *Table) SweepShard(i int, keep func(*Flow) bool) int {
	s := &t.shards[i]
	if s.ix == nil {
		return 0
	}
	slots := s.ix.slots
	mask, start := len(slots)-1, 0
	for slots[start].f != nil {
		start++
	}
	removed := 0
	for n := 1; n <= mask; {
		if j := (start + n) & mask; slots[j].f != nil && !keep(slots[j].f) {
			s.remove(j)
			removed++
		} else {
			n++
		}
	}
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
