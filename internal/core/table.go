package core

import (
	"sync"
	"sync/atomic"
)

// numShards for the flow table. The paper uses an RCU hash table because
// lookups vastly outnumber insertions; sharded RW-mutexes give the same
// read-mostly scaling in Go without unsafe tricks, and per-flow spinlocks
// become the per-Flow mutex.
const numShards = 64

type tableShard struct {
	mu    sync.RWMutex
	flows map[FlowKey]*Flow
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
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].flows = make(map[FlowKey]*Flow)
	}
	return t
}

// shardIndex hashes k (FNV-1a over the tuple) down to a shard number. The
// raw FNV multiply only carries entropy upward, so the low bits — all a
// power-of-two shard count keeps — would ignore every input bit above ~6;
// flows differing only in source port (many connections between one host
// pair, the common datacenter shape) would then pile into a single shard.
// The xor-fold finalizer mixes the high half back down before reduction.
func shardIndex(k FlowKey) int {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(k.Src))
	mix(uint64(k.Dst))
	mix(uint64(k.SPort)<<16 | uint64(k.DPort))
	h ^= h >> 32
	h ^= h >> 16
	return int(h % numShards)
}

func (t *Table) shard(k FlowKey) *tableShard {
	return &t.shards[shardIndex(k)]
}

// Get returns the flow for k, or nil.
func (t *Table) Get(k FlowKey) *Flow {
	s := t.shard(k)
	s.mu.RLock()
	f := s.flows[k]
	s.mu.RUnlock()
	return f
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
// created reports whether init ran.
func (t *Table) GetOrCreate(k FlowKey, init func() *Flow) (f *Flow, created bool) {
	s := t.shard(k)
	s.mu.RLock()
	f = s.flows[k]
	s.mu.RUnlock()
	if f != nil {
		return f, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if f = s.flows[k]; f != nil {
		return f, false
	}
	f = init()
	s.flows[k] = f
	t.size.Add(1)
	return f, true
}

// Delete removes the flow for k.
func (t *Table) Delete(k FlowKey) {
	s := t.shard(k)
	s.mu.Lock()
	if _, ok := s.flows[k]; ok {
		delete(s.flows, k)
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

// ShardStats scans the shards once (read-locked one at a time) and reports
// the total entry count plus the longest shard, for the occupancy and
// imbalance gauges. Control-plane use only; the datapath never calls it.
func (t *Table) ShardStats() (total, maxShard int) {
	for i := range t.shards {
		t.shards[i].mu.RLock()
		n := len(t.shards[i].flows)
		t.shards[i].mu.RUnlock()
		total += n
		if n > maxShard {
			maxShard = n
		}
	}
	return total, maxShard
}

// Range calls fn for every flow; fn must not mutate the table, and must not
// keep f past its return: once the shard lock is released the record can be
// removed and recycled into another flow. Iteration holds one shard
// read-lock at a time.
func (t *Table) Range(fn func(*Flow)) {
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.RLock()
		for _, f := range s.flows {
			fn(f)
		}
		s.mu.RUnlock()
	}
}

// Clear empties every shard in place and returns how many flows were
// removed. Unlike swapping in a fresh Table, clearing in place is safe while
// another goroutine reads the table through the same pointer (warm restart
// under live traffic): each shard is emptied under its write lock. gen is
// bumped before the first shard as well as after the last: Clear is the one
// remover that may run off the datapath goroutine, and a reverse link
// stamped before the reset began must not stay valid while it runs.
func (t *Table) Clear() int {
	t.gen.Add(1)
	removed := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n := len(s.flows)
		if n > 0 {
			removed += n
			clear(s.flows)
			t.size.Add(-int64(n))
		}
		s.mu.Unlock()
	}
	if removed > 0 {
		t.gen.Add(1)
	}
	return removed
}

// Sweep removes flows failing keep and returns how many were removed.
func (t *Table) Sweep(keep func(*Flow) bool) int {
	return t.SweepRange(0, numShards, keep)
}

// SweepShard sweeps one shard: the unit of incremental pressure eviction.
func (t *Table) SweepShard(i int, keep func(*Flow) bool) int {
	s := &t.shards[i]
	removed := 0
	s.mu.Lock()
	for k, f := range s.flows {
		if !keep(f) {
			delete(s.flows, k)
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
