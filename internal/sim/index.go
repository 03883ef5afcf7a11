package sim

import (
	"fmt"
	"math/bits"
)

// Slots is the open-addressed hash array every per-packet table of the
// simulation runs on: an Index, a vSwitch's flow table, a stack's TIME_WAIT
// records. The caller chooses the slot type and its hash, and the
// zero S is the empty slot, so a slot may name a record instead of holding a
// key. A hash's top log2(len) bits pick its home slot, and a probe walks on
// linearly. At most three quarters of the array is in use, so every probe
// meets an empty slot. A delete shifts the slots after it back (Knuth vol. 3,
// 6.4, Algorithm R), so no probe path crosses an empty slot and nothing leaves
// a tombstone.
//
// A method that takes a hash function calls it only on slots that may move.
// The zero Slots is empty and allocates nothing until its first Insert; Find,
// Len, Range, DeleteFunc and Check take a nil *Slots as empty. Like the rest
// of a simulation, Slots belong to one goroutine.
type Slots[S comparable] struct {
	slots []S
	n     uint32 // slots in use
	shift uint32 // 64 − log2(len(slots))
}

// Find returns the position of the first slot on hash h's probe path for
// which eq reports true, or −1 when the path reaches an empty slot first.
func (t *Slots[S]) Find(h uint64, eq func(S) bool) int {
	var zero S
	if t == nil || t.n == 0 {
		return -1
	}
	mask := len(t.slots) - 1
	for i := int(h >> t.shift); t.slots[i] != zero; i = (i + 1) & mask {
		if eq(t.slots[i]) {
			return i
		}
	}
	return -1
}

// At returns the slot at position i.
func (t *Slots[S]) At(i int) S { return t.slots[i] }

// Insert places s, whose hash is h and which must not be the zero S, in the
// first empty slot on h's probe path. Adding a slot past three quarters in use
// first doubles the array (the first Insert makes eight slots) and re-places
// every slot, in array order.
func (t *Slots[S]) Insert(h uint64, s S, hash func(S) uint64) {
	if 4*(t.n+1) > 3*uint32(len(t.slots)) {
		var zero S
		old := t.slots
		t.slots = make([]S, max(8, 2*len(old)))
		t.shift = uint32(64 - bits.TrailingZeros(uint(len(t.slots))))
		for _, o := range old {
			if o != zero {
				t.place(hash(o), o)
			}
		}
	}
	t.n++
	t.place(h, s)
}

// place puts s in the first empty slot on hash h's probe path.
func (t *Slots[S]) place(h uint64, s S) {
	var zero S
	mask := len(t.slots) - 1
	i := int(h >> t.shift)
	for t.slots[i] != zero {
		i = (i + 1) & mask
	}
	t.slots[i] = s
}

// Delete empties the slot at position i, which is in use. Up to the next
// empty slot, every slot whose home does not lie cyclically after the gap
// moves back into it, and leaves a gap of its own.
func (t *Slots[S]) Delete(i int, hash func(S) uint64) {
	var zero S
	mask := len(t.slots) - 1
	for j := (i + 1) & mask; t.slots[j] != zero; j = (j + 1) & mask {
		if home := int(hash(t.slots[j]) >> t.shift); (j-home)&mask >= (j-i)&mask {
			t.slots[i], i = t.slots[j], j
		}
	}
	t.slots[i] = zero
	t.n--
}

// DeleteFunc deletes every slot for which del reports true and returns how
// many it deleted. del runs once per slot in use. The walk starts just past an
// empty slot, which no probe path crosses, so no delete shifts a slot across
// the start; after a delete the same position is examined again, as a later
// slot may have shifted into it.
func (t *Slots[S]) DeleteFunc(del func(S) bool, hash func(S) uint64) int {
	if t == nil || t.n == 0 {
		return 0
	}
	var zero S
	mask, start := len(t.slots)-1, 0
	for t.slots[start] != zero {
		start++
	}
	deleted := 0
	for n := 1; n <= mask; {
		if j := (start + n) & mask; t.slots[j] != zero && del(t.slots[j]) {
			t.Delete(j, hash)
			deleted++
		} else {
			n++
		}
	}
	return deleted
}

// Len returns the number of slots in use.
func (t *Slots[S]) Len() int {
	if t == nil {
		return 0
	}
	return int(t.n)
}

// Range calls f for every slot in use, in array order. f must not change the
// slots.
func (t *Slots[S]) Range(f func(S)) {
	if t == nil {
		return
	}
	var zero S
	for _, s := range t.slots {
		if s != zero {
			f(s)
		}
	}
}

// Home returns hash h's home slot.
func (t *Slots[S]) Home(h uint64) int { return int(h >> t.shift) }

// Check returns the first invariant the array breaks, or nil: the count of
// slots in use, at most three quarters of them in use, and no empty slot
// between any slot and its home. wrapped counts the slots that sit past the
// array's end from their home, at a lower position (for tests).
func (t *Slots[S]) Check(hash func(S) uint64) (wrapped int, err error) {
	if t == nil {
		return 0, nil
	}
	var zero S
	mask, used := len(t.slots)-1, 0
	for i, s := range t.slots {
		if s == zero {
			continue
		}
		used++
		home := t.Home(hash(s))
		for j := home; j != i; j = (j + 1) & mask {
			if t.slots[j] == zero {
				return 0, fmt.Errorf("slot %d: the probe path from home %d crosses empty slot %d", i, home, j)
			}
		}
		if i < home {
			wrapped++
		}
	}
	if used != int(t.n) || 4*used > 3*len(t.slots) {
		return 0, fmt.Errorf("%d slots in use of %d, counted %d", used, len(t.slots), t.n)
	}
	return wrapped, nil
}

// Word is a key an Index takes: one machine word, hashed whole.
type Word interface{ ~uint32 | ~uint64 }

// HashWord is the multiplicative hash an Index takes of its keys, for a
// caller of Slots whose key is one word.
func HashWord[K Word](k K) uint64 { return uint64(k) * 0x9e3779b97f4a7c15 }

// Index maps one-word keys to values for the lookups the layers above the
// simulator make per packet: a stack's connection demux, a switch's routes.
// It is Slots of key/value pairs hashed by HashWord. A slot whose value is
// V's zero value is empty, so the zero value cannot be stored. The zero Index
// is empty and allocates nothing until its first Put.
type Index[K Word, V comparable] struct {
	s Slots[indexSlot[K, V]]
}

type indexSlot[K Word, V comparable] struct {
	k K
	v V
}

func slotHash[K Word, V comparable](s indexSlot[K, V]) uint64 { return HashWord(s.k) }

// find returns the slot holding k, or −1.
func (ix *Index[K, V]) find(k K) int {
	return ix.s.Find(HashWord(k), func(s indexSlot[K, V]) bool { return s.k == k })
}

// Get returns k's value, or the zero V when k is absent. It stops at k's
// slot or at an empty one, whose key and value are zero: small enough to
// inline where a packet is demultiplexed or routed.
func (ix *Index[K, V]) Get(k K) (zero V) {
	if ix.s.n == 0 {
		return zero
	}
	mask := len(ix.s.slots) - 1
	for i := int(HashWord(k) >> ix.s.shift); ; i = (i + 1) & mask {
		if s := &ix.s.slots[i]; s.k == k || s.v == zero {
			return s.v
		}
	}
}

// Put maps k to v, which must not be the zero V.
func (ix *Index[K, V]) Put(k K, v V) {
	if i := ix.find(k); i >= 0 {
		ix.s.slots[i].v = v
		return
	}
	ix.s.Insert(HashWord(k), indexSlot[K, V]{k, v}, slotHash[K, V])
}

// Delete removes k and reports whether it was present.
func (ix *Index[K, V]) Delete(k K) bool {
	i := ix.find(k)
	if i < 0 {
		return false
	}
	ix.s.Delete(i, slotHash[K, V])
	return true
}

// Len returns the number of keys held.
func (ix *Index[K, V]) Len() int { return ix.s.Len() }
