package core

import "math/bits"

// numShards for the flow table. The paper's OVS keeps flows in an RCU hash
// table with per-flow spinlocks because its datapath runs on every core. Here
// one simulation goroutine owns the table, so each shard is a plain
// open-addressed, linear-probe slot array; the shards stay because they fix
// the order eviction and the sharded GC tick walk the records in.
const numShards = 64

// slot is one entry of a shard's index: the key as two words and the record.
// A delete leaves a tombstone (no record, tombstone in k1, whose top half no
// key sets), so that probes for keys stored past it still reach them.
type slot struct {
	k0, k1 uint64
	f      *Flow
}

const tombstone = 1 << 63

// index is one shard's slot array. A hash's top bits pick a key's home slot
// (its low bits picked the shard).
type index struct {
	slots []slot
	shift uint // 64 − log2(len(slots))
}

// find returns the slot holding key (w0, w1), or −1. At most three quarters of
// the array is in use, so every probe meets an empty slot.
func (ix *index) find(w0, w1, h uint64) int {
	if ix == nil {
		return -1
	}
	mask := len(ix.slots) - 1
	for i := int(h >> ix.shift); ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.f == nil {
			if s.k1 != tombstone {
				return -1
			}
		} else if s.k1 == w1 && s.k0 == w0 {
			return i
		}
	}
}

// free returns the first slot without a record on hash h's probe path.
func (ix *index) free(h uint64) int {
	i := int(h >> ix.shift)
	for ix.slots[i].f != nil {
		i = (i + 1) & (len(ix.slots) - 1)
	}
	return i
}

// compact drops ix's tombstones in place: each record moves back to the
// first empty slot on its probe path. The walk starts past a slot that was
// empty before, which no probe path crosses, so every slot on a record's path
// is final when the walk reaches it.
func (ix *index) compact() {
	mask, start := len(ix.slots)-1, 0
	for ix.slots[start].f != nil || ix.slots[start].k1 == tombstone {
		start++
	}
	for n := 1; n <= mask; n++ {
		i := (start + n) & mask
		o := &ix.slots[i]
		if o.f == nil {
			o.k1 = 0
			continue
		}
		j := int(hashWords(o.k0, o.k1) >> ix.shift)
		for j != i && ix.slots[j].f != nil {
			j = (j + 1) & mask
		}
		if j != i {
			ix.slots[j] = *o
			o.f = nil
		}
	}
}

// tableShard is one shard of the index.
type tableShard struct {
	ix   *index
	live int // records
	used int // records plus tombstones: what the load factor counts
}

// insert adds a record for a key the shard does not hold. Past three quarters
// of the array in use, the tombstones go first: in place while the records
// fill at most half of the array, else by moving them to a fresh array, twice
// as large.
func (s *tableShard) insert(w0, w1, h uint64, f *Flow) {
	ix := s.ix
	if ix == nil || 4*(s.used+1) > 3*len(ix.slots) {
		n := 8
		for n < 2*(s.live+1) {
			n *= 2
		}
		if ix != nil && n <= len(ix.slots) {
			ix.compact()
		} else {
			next := &index{slots: make([]slot, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
			for i := 0; ix != nil && i < len(ix.slots); i++ {
				if o := ix.slots[i]; o.f != nil {
					next.slots[next.free(hashWords(o.k0, o.k1))] = o
				}
			}
			ix = next
			s.ix = ix
		}
		s.used = s.live
	}
	sl := &ix.slots[ix.free(h)]
	if sl.k1 != tombstone {
		s.used++
	}
	s.live++
	*sl = slot{k0: w0, k1: w1, f: f}
}

// remove turns slot i into a tombstone.
func (s *tableShard) remove(i int) {
	s.live--
	s.ix.slots[i] = slot{k1: tombstone}
}

// Table is the vSwitch's connection-tracking table: one entry per data
// direction, two per TCP connection. It belongs to the simulation goroutine.
type Table struct {
	shards [numShards]tableShard

	// size counts entries across all shards, so Len — which the datapath
	// consults on every flow create under MaxFlows — does not scan shards.
	size int

	// gen increments on every operation that removes entries (Delete, Sweep*,
	// Clear). A Flow's link to its reverse direction (reverseOf) is only
	// trusted while gen is unchanged since it was taken, so an eviction or GC
	// sweep invalidates every outstanding one at once.
	gen uint64
}

// NewTable creates an empty flow table.
func NewTable() *Table { return &Table{} }

// keyWords packs k into a slot's two key words.
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

// locate returns k's key words, its hash and its shard.
func (t *Table) locate(k FlowKey) (w0, w1, h uint64, s *tableShard) {
	w0, w1 = keyWords(k)
	h = hashWords(w0, w1)
	return w0, w1, h, &t.shards[h%numShards]
}

// Get returns the flow for k, or nil.
func (t *Table) Get(k FlowKey) *Flow {
	w0, w1, h, s := t.locate(k)
	if i := s.ix.find(w0, w1, h); i >= 0 {
		return s.ix.slots[i].f
	}
	return nil
}

// reverseOf returns the flow tracking the opposite direction of f, exactly
// what Get(f.Key.Reverse()) would return, through the link f carries: every
// TCP packet consults both directions of its connection, and the second one
// is always the reverse of the flow just found, so the link saves that probe.
// The link is valid while its stamp equals gen: an entry can only leave the
// table, or be replaced under its key, through a removal, and every removal
// bumps gen. A nil peer is never trusted — the reverse flow may be created by
// the next packet — so a miss only drops the stale record.
func (t *Table) reverseOf(f *Flow) *Flow {
	if f.peer != nil && f.peerGen == t.gen {
		return f.peer
	}
	f.peer, f.peerGen = t.Get(f.Key.Reverse()), t.gen
	return f.peer
}

// GetOrCreate returns the flow for k, creating it with init if absent.
// created reports whether init ran. init may probe the table, but not add to
// or remove from it.
func (t *Table) GetOrCreate(k FlowKey, init func() *Flow) (f *Flow, created bool) {
	w0, w1, h, s := t.locate(k)
	if i := s.ix.find(w0, w1, h); i >= 0 {
		return s.ix.slots[i].f, false
	}
	f = init()
	s.insert(w0, w1, h, f)
	t.size++
	return f, true
}

// Delete removes the flow for k.
func (t *Table) Delete(k FlowKey) {
	w0, w1, h, s := t.locate(k)
	if i := s.ix.find(w0, w1, h); i >= 0 {
		s.remove(i)
		t.size--
		t.gen++
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
	t.SweepRange(0, numShards, func(f *Flow) bool {
		fn(f)
		return true
	})
}

// Clear empties every shard in place and returns how many flows were removed.
// The table keeps its identity, so every holder of the pointer sees it empty.
func (t *Table) Clear() int {
	t.gen++
	removed := t.size
	t.shards = [numShards]tableShard{}
	t.size = 0
	return removed
}

// SweepShard sweeps one shard: the unit of incremental pressure eviction.
// keep may probe the table, but not add to or remove from it.
func (t *Table) SweepShard(i int, keep func(*Flow) bool) int {
	s := &t.shards[i]
	removed := 0
	for j := 0; s.ix != nil && j < len(s.ix.slots); j++ {
		if f := s.ix.slots[j].f; f != nil && !keep(f) {
			s.remove(j)
			removed++
		}
	}
	if removed > 0 {
		t.size -= removed
		t.gen++
	}
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
