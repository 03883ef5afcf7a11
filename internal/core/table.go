package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

// numShards for the flow table. The paper's OVS keeps flows in an RCU hash
// table because lookups vastly outnumber insertions. Each shard here has that
// shape without unsafe: an open-addressed, linear-probe slot array that
// readers probe with no lock (a seqlock read, tableShard), while writers
// serialize on the shard mutex. Per-flow spinlocks become the per-Flow mutex.
const numShards = 64

// slot is one entry of a shard's index: the key as two words and the record.
// A delete leaves a tombstone (no record, tombstone in k1, whose top half no
// key sets), so that probes for keys stored past it still reach them.
type slot struct {
	k0, k1 atomic.Uint64
	f      atomic.Pointer[Flow]
}

const tombstone = 1 << 63

func (s *slot) set(w0, w1 uint64, f *Flow) {
	s.k0.Store(w0)
	s.k1.Store(w1)
	s.f.Store(f)
}

// index is one published slot array. A hash's top bits pick a key's home slot
// (its low bits picked the shard).
type index struct {
	slots []slot
	shift uint // 64 − log2(len(slots))
}

// find returns the slot holding key (w0, w1), or −1: exact under the shard
// mutex, validated by seq for a reader. Bounded, so even a torn read ends.
func (ix *index) find(w0, w1, h uint64) int {
	if ix == nil {
		return -1
	}
	mask := len(ix.slots) - 1
	for i, n := int(h>>ix.shift), 0; n <= mask; i, n = (i+1)&mask, n+1 {
		s := &ix.slots[i]
		if k1 := s.k1.Load(); s.f.Load() == nil {
			if k1 != tombstone {
				return -1
			}
		} else if k1 == w1 && s.k0.Load() == w0 {
			return i
		}
	}
	return -1
}

// free returns the first slot without a record on hash h's probe path.
func (ix *index) free(h uint64) int {
	i := int(h >> ix.shift)
	for ix.slots[i].f.Load() != nil {
		i = (i + 1) & (len(ix.slots) - 1)
	}
	return i
}

// compact drops ix's tombstones in place: each record moves back to the
// first empty slot on its probe path. Caller holds the shard mutex with seq
// odd. The walk starts past a slot that was empty before, which no probe path
// crosses, so every slot on a record's path is final when the walk reaches it.
func (ix *index) compact() {
	mask, start := len(ix.slots)-1, 0
	for ix.slots[start].f.Load() != nil || ix.slots[start].k1.Load() == tombstone {
		start++
	}
	for n := 1; n <= mask; n++ {
		i := (start + n) & mask
		o := &ix.slots[i]
		g := o.f.Load()
		if g == nil {
			o.k1.Store(0)
			continue
		}
		k0, k1 := o.k0.Load(), o.k1.Load()
		j := int(hashWords(k0, k1) >> ix.shift)
		for j != i && ix.slots[j].f.Load() != nil {
			j = (j + 1) & mask
		}
		if j != i {
			ix.slots[j].set(k0, k1, g)
			o.f.Store(nil)
		}
	}
}

// tableShard is one shard of the index. Writers hold mu and bracket every
// change to the published array with two increments of seq, so seq is odd
// exactly while a slot may be half-written; nothing but slot stores runs in
// that window. Readers take no lock: they load seq, probe, and retry if seq
// was odd or has moved. A grow or rehash publishes a fresh array with one
// store; a reader still on the old one sees seq move and retries.
type tableShard struct {
	mu   sync.Mutex
	seq  atomic.Uint64
	ix   atomic.Pointer[index]
	live int // records (mu)
	used int // records plus tombstones (mu): what the load factor counts
}

// get is the lock-free probe.
func (s *tableShard) get(w0, w1, h uint64) *Flow {
	for {
		if seq := s.seq.Load(); seq&1 == 0 {
			var f *Flow
			ix := s.ix.Load()
			if i := ix.find(w0, w1, h); i >= 0 {
				f = ix.slots[i].f.Load()
			}
			if s.seq.Load() == seq {
				return f
			}
		}
		runtime.Gosched()
	}
}

// insert adds a record for a key the shard does not hold. Caller holds mu.
// Past three quarters of the array in use, the tombstones go first: in place
// while the records fill at most half of the array, else by moving them to a
// fresh array, twice as large, published with one store.
func (s *tableShard) insert(w0, w1, h uint64, f *Flow) {
	ix := s.ix.Load()
	if ix == nil || 4*(s.used+1) > 3*len(ix.slots) {
		n := 8
		for n < 2*(s.live+1) {
			n *= 2
		}
		if ix != nil && n <= len(ix.slots) {
			s.seq.Add(1)
			ix.compact()
			s.seq.Add(1)
		} else {
			next := &index{slots: make([]slot, n), shift: uint(64 - bits.TrailingZeros(uint(n)))}
			for i := 0; ix != nil && i < len(ix.slots); i++ {
				o := &ix.slots[i]
				if g := o.f.Load(); g != nil {
					k0, k1 := o.k0.Load(), o.k1.Load()
					next.slots[next.free(hashWords(k0, k1))].set(k0, k1, g)
				}
			}
			ix = next
			s.seq.Add(1)
			s.ix.Store(ix)
			s.seq.Add(1)
		}
		s.used = s.live
	}
	sl := &ix.slots[ix.free(h)]
	if sl.k1.Load() != tombstone {
		s.used++
	}
	s.live++
	s.seq.Add(1)
	sl.set(w0, w1, f)
	s.seq.Add(1)
}

// remove turns slot i into a tombstone. Caller holds mu.
func (s *tableShard) remove(ix *index, i int) {
	s.live--
	s.seq.Add(1)
	ix.slots[i].f.Store(nil)
	ix.slots[i].k1.Store(tombstone)
	s.seq.Add(1)
}

// Table is the vSwitch's connection-tracking table: one entry per data
// direction, two per TCP connection.
type Table struct {
	shards [numShards]tableShard

	// size counts entries across all shards, maintained on every insert and
	// delete so Len — which the datapath consults on every flow create under
	// MaxFlows — is one atomic load instead of 64 lock acquisitions.
	size atomic.Int64

	// gen increments on every operation that removes entries (Delete, Sweep*,
	// Clear). A flow pointer held outside a shard lock — a Flow's link to its
	// reverse direction (reverseOf) — is only trusted while gen is unchanged
	// since it was taken, so an eviction or GC sweep invalidates every
	// outstanding one at once.
	gen atomic.Uint64
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

// Get returns the flow for k, or nil. It takes no lock.
func (t *Table) Get(k FlowKey) *Flow {
	w0, w1, h, s := t.locate(k)
	return s.get(w0, w1, h)
}

// reverseOf returns the flow tracking the opposite direction of f, exactly
// what Get(f.Key.Reverse()) would return, through the link f carries: every
// TCP packet consults both directions of its connection, and the second one
// is always the reverse of the flow just found, so the link saves that probe.
// The link is valid while its stamp equals gen: an entry can only leave the
// table, or be replaced under its key, through a removal, and every removal
// bumps gen. gen is loaded before the probe and stored after it, so a removal
// racing the probe leaves a stamp that is too old (one more probe next time),
// never one that is too new. A nil peer is never trusted — the reverse flow
// may be created by the next packet — so a miss only drops the stale record.
// Datapath goroutine only: it owns f.peer and f.peerGen.
func (t *Table) reverseOf(f *Flow) *Flow {
	g := t.gen.Load()
	if f.peer != nil && f.peerGen == g {
		return f.peer
	}
	f.peer, f.peerGen = t.Get(f.Key.Reverse()), g
	return f.peer
}

// GetOrCreate returns the flow for k, creating it with init if absent.
// created reports whether init ran. init runs with the shard closed to other
// writers but open to readers, so it may probe the table, that shard too.
func (t *Table) GetOrCreate(k FlowKey, init func() *Flow) (f *Flow, created bool) {
	w0, w1, h, s := t.locate(k)
	if f = s.get(w0, w1, h); f != nil {
		return f, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ix := s.ix.Load()
	if i := ix.find(w0, w1, h); i >= 0 {
		return ix.slots[i].f.Load(), false
	}
	f = init()
	s.insert(w0, w1, h, f)
	t.size.Add(1)
	return f, true
}

// Delete removes the flow for k.
func (t *Table) Delete(k FlowKey) {
	w0, w1, h, s := t.locate(k)
	s.mu.Lock()
	ix := s.ix.Load()
	if i := ix.find(w0, w1, h); i >= 0 {
		s.remove(ix, i)
		t.size.Add(-1)
		t.gen.Add(1)
	}
	s.mu.Unlock()
}

// Len reports the entry count: one atomic load, O(1) — the MaxFlows capacity
// check runs it on every flow create, so it must not scan shards.
func (t *Table) Len() int {
	return int(t.size.Load())
}

// ShardStats scans the shards once (locked one at a time) and reports the
// total entry count plus the longest shard, for the occupancy and imbalance
// gauges. Control-plane use only; the datapath never calls it.
func (t *Table) ShardStats() (total, maxShard int) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n := s.live
		s.mu.Unlock()
		total += n
		maxShard = max(maxShard, n)
	}
	return total, maxShard
}

// Range calls fn for every flow; fn must not mutate the table, and must not
// keep f past its return: once the shard lock is released the record can be
// removed and recycled into another flow. Iteration holds one shard's writer
// lock at a time; readers are not held up.
func (t *Table) Range(fn func(*Flow)) {
	t.SweepRange(0, numShards, func(f *Flow) bool {
		fn(f)
		return true
	})
}

// Clear empties every shard in place and returns how many flows were
// removed. Unlike swapping in a fresh Table, clearing in place is safe while
// another goroutine reads the table through the same pointer (warm restart
// under live traffic): each shard is emptied under its lock. gen is bumped
// before the first shard as well as after the last: Clear is the one remover
// that may run off the datapath goroutine, and a reverse link stamped before
// the reset began must not stay valid while it runs.
func (t *Table) Clear() int {
	t.gen.Add(1)
	removed := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		removed += s.live
		t.size.Add(-int64(s.live))
		s.live, s.used = 0, 0
		s.seq.Add(1)
		s.ix.Store(nil)
		s.seq.Add(1)
		s.mu.Unlock()
	}
	if removed > 0 {
		t.gen.Add(1)
	}
	return removed
}

// SweepShard sweeps one shard: the unit of incremental pressure eviction.
// keep runs with the shard closed to other writers but open to readers.
func (t *Table) SweepShard(i int, keep func(*Flow) bool) int {
	s := &t.shards[i]
	removed := 0
	s.mu.Lock()
	for ix, j := s.ix.Load(), 0; ix != nil && j < len(ix.slots); j++ {
		if f := ix.slots[j].f.Load(); f != nil && !keep(f) {
			s.remove(ix, j)
			removed++
		}
	}
	s.mu.Unlock()
	if removed > 0 {
		t.size.Add(-int64(removed))
		t.gen.Add(1)
	}
	return removed
}

// SweepRange sweeps shards [lo, hi): the unit of the sharded GC tick, which
// walks the table one shard-group at a time instead of locking all 64 shards
// in one timer callback.
func (t *Table) SweepRange(lo, hi int, keep func(*Flow) bool) int {
	removed := 0
	for i := lo; i < hi; i++ {
		removed += t.SweepShard(i, keep)
	}
	return removed
}
