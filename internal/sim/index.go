package sim

import "math/bits"

// Word is a key an Index takes: one machine word, hashed whole.
type Word interface{ ~uint32 | ~uint64 }

// Index maps one-word keys to values for the lookups the layers above the
// simulator make per packet: a stack's connection demux, a switch's routes.
// It is an open-addressed array of key/value slots, probed linearly from
// the top bits of a multiplicative hash and at most three quarters full. A
// delete shifts the slots after it back (Knuth vol. 3, 6.4, Algorithm R), so
// no probe path crosses an empty slot and nothing leaves a tombstone.
//
// A slot whose value is V's zero value is empty, so the zero value cannot be
// stored. The zero Index is empty and allocates nothing until its first Put.
// Like the rest of a simulation, an Index belongs to one goroutine.
type Index[K Word, V comparable] struct {
	slots []indexSlot[K, V]
	n     int  // slots in use
	shift uint // 64 − log2(len(slots))
}

type indexSlot[K Word, V comparable] struct {
	k K
	v V
}

// home returns k's home slot: the top log2(len(slots)) bits of its hash.
func (ix *Index[K, V]) home(k K) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> ix.shift)
}

// find returns the slot holding k, or −1.
func (ix *Index[K, V]) find(k K) int {
	var zero V
	if ix.n == 0 {
		return -1
	}
	mask := len(ix.slots) - 1
	for i := ix.home(k); ix.slots[i].v != zero; i = (i + 1) & mask {
		if ix.slots[i].k == k {
			return i
		}
	}
	return -1
}

// Get returns k's value, or the zero V when k is absent. It stops at k's
// slot or at an empty one, whose key and value are zero: small enough to
// inline where a packet is demultiplexed or routed.
func (ix *Index[K, V]) Get(k K) (zero V) {
	if ix.n == 0 {
		return zero
	}
	mask := len(ix.slots) - 1
	for i := ix.home(k); ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.k == k || s.v == zero {
			return s.v
		}
	}
}

// Put maps k to v, which must not be the zero V. Adding a key past three
// quarters of the slots in use first doubles the array (the first Put makes
// eight slots).
func (ix *Index[K, V]) Put(k K, v V) {
	if i := ix.find(k); i >= 0 {
		ix.slots[i].v = v
		return
	}
	if 4*(ix.n+1) > 3*len(ix.slots) {
		var zero V
		old := ix.slots
		ix.slots = make([]indexSlot[K, V], max(8, 2*len(old)))
		ix.shift = uint(64 - bits.TrailingZeros(uint(len(ix.slots))))
		for _, s := range old {
			if s.v != zero {
				ix.place(s)
			}
		}
	}
	ix.n++
	ix.place(indexSlot[K, V]{k, v})
}

// place puts s in the first empty slot on its key's probe path.
func (ix *Index[K, V]) place(s indexSlot[K, V]) {
	var zero V
	mask := len(ix.slots) - 1
	i := ix.home(s.k)
	for ix.slots[i].v != zero {
		i = (i + 1) & mask
	}
	ix.slots[i] = s
}

// Delete removes k and reports whether it was present. Up to the next empty
// slot, every entry whose home slot does not lie cyclically after the gap
// moves back into it, and leaves a gap of its own.
func (ix *Index[K, V]) Delete(k K) bool {
	i := ix.find(k)
	if i < 0 {
		return false
	}
	var zero V
	mask := len(ix.slots) - 1
	for j := (i + 1) & mask; ix.slots[j].v != zero; j = (j + 1) & mask {
		if home := ix.home(ix.slots[j].k); (j-home)&mask >= (j-i)&mask {
			ix.slots[i], i = ix.slots[j], j
		}
	}
	ix.slots[i] = indexSlot[K, V]{}
	ix.n--
	return true
}

// Len returns the number of keys held.
func (ix *Index[K, V]) Len() int { return ix.n }

// Range calls f for every key and value, in slot order. f must not change
// the index.
func (ix *Index[K, V]) Range(f func(K, V)) {
	var zero V
	for _, s := range ix.slots {
		if s.v != zero {
			f(s.k, s.v)
		}
	}
}
