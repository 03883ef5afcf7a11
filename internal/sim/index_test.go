package sim

import (
	"math/rand"
	"testing"
)

// indexOracle drives an Index and a Go map through the same seeded puts,
// gets, deletes and sweeps (Slots.DeleteFunc) and checks them against each
// other after every step.
// Keys come from three pools: fresh random keys, keys already held, and
// keys whose home is one of the array's last two slots, so probe paths
// collide and clusters wrap past the end of the array.
type indexOracle[K Word, V comparable] struct {
	t     *testing.T
	rng   *rand.Rand
	ix    Index[K, V]
	model map[K]V
	keys  []K // the model's keys, for picking one
	val   func(int) V

	maxLen, collisions, wrapDeletes, wrapSweeps int
}

func (o *indexOracle[K, V]) key() K {
	switch r := o.rng.Intn(3); {
	case r == 0 && len(o.keys) > 0:
		return o.keys[o.rng.Intn(len(o.keys))]
	case r == 1 && len(o.ix.s.slots) > 0:
		want := len(o.ix.s.slots) - 1 - o.rng.Intn(2)
		for {
			if k := K(o.rng.Uint64()); o.ix.s.Home(HashWord(k)) == want {
				return k
			}
		}
	default:
		return K(o.rng.Uint64())
	}
}

// wraps reports whether the cluster holding slot i runs past the array's end.
func (o *indexOracle[K, V]) wraps(i int) bool {
	var zero V
	n := len(o.ix.s.slots)
	return o.ix.s.slots[n-1].v != zero && o.ix.s.slots[0].v != zero &&
		(o.run(i, n-1, 1) || o.run(i, 0, -1))
}

// run reports whether the slots from i up to j, stepping by d, are all in
// use (j itself is not checked).
func (o *indexOracle[K, V]) run(i, j, d int) bool {
	var zero V
	for ; i != j; i += d {
		if o.ix.s.slots[i].v == zero {
			return false
		}
	}
	return true
}

// forget drops k from the model.
func (o *indexOracle[K, V]) forget(k K) {
	delete(o.model, k)
	for i, q := range o.keys {
		if q == k {
			o.keys[i] = o.keys[len(o.keys)-1]
			o.keys = o.keys[:len(o.keys)-1]
			return
		}
	}
}

// sweep deletes a seeded quarter of the keys through DeleteFunc, which must
// ask about every key exactly once, the keys that shift into a slot it just
// emptied included.
func (o *indexOracle[K, V]) sweep() {
	t := o.t
	doomed := map[K]bool{}
	for _, k := range o.keys {
		if o.rng.Intn(4) == 0 {
			doomed[k] = true
			if o.wraps(o.ix.find(k)) {
				o.wrapSweeps++
			}
		}
	}
	asked := map[K]int{}
	n := o.ix.s.DeleteFunc(func(s indexSlot[K, V]) bool {
		asked[s.k]++
		return doomed[s.k]
	}, slotHash[K, V])
	if n != len(doomed) || len(asked) != len(o.model) {
		t.Fatalf("DeleteFunc deleted %d of %d doomed, asked about %d of %d keys", n, len(doomed), len(asked), len(o.model))
	}
	for k, calls := range asked {
		if calls != 1 {
			t.Fatalf("DeleteFunc asked about %#x %d times", k, calls)
		}
	}
	for k := range doomed {
		o.forget(k)
	}
}

func (o *indexOracle[K, V]) step(put, del int) {
	t := o.t
	k := o.key()
	want, held := o.model[k]
	switch op := o.rng.Intn(100); {
	case op < put:
		v := o.val(o.rng.Int())
		if !held && len(o.ix.s.slots) > 0 && o.ix.s.slots[o.ix.s.Home(HashWord(k))].v != *new(V) {
			o.collisions++
		}
		o.ix.Put(k, v)
		if !held {
			o.keys = append(o.keys, k)
		}
		o.model[k] = v
	case op < put+del:
		if held && o.wraps(o.ix.find(k)) {
			o.wrapDeletes++
		}
		if got := o.ix.Delete(k); got != held {
			t.Fatalf("Delete(%#x) = %v, model holds it: %v", k, got, held)
		}
		if held {
			o.forget(k)
		}
	default:
		if got := o.ix.Get(k); got != want {
			t.Fatalf("Get(%#x) = %v, model %v (held %v)", k, got, want, held)
		}
	}
	o.check()
}

// check compares the whole index with the model and checks its shape
// (Slots.Check).
func (o *indexOracle[K, V]) check() {
	t := o.t
	var zero V
	if o.ix.Len() != len(o.model) {
		t.Fatalf("Len = %d, model %d", o.ix.Len(), len(o.model))
	}
	if _, err := o.ix.s.Check(slotHash[K, V]); err != nil {
		t.Fatal(err)
	}
	o.maxLen = max(o.maxLen, len(o.ix.s.slots))
	seen := 0
	o.ix.Range(func(k K, v V) {
		seen++
		if want, ok := o.model[k]; !ok || want != v {
			t.Fatalf("Range yields %#x → %v; model %v (held %v)", k, v, want, ok)
		}
	})
	if seen != len(o.model) {
		t.Fatalf("Range yields %d keys, model %d", seen, len(o.model))
	}
	for _, s := range o.ix.s.slots {
		if s.v == zero {
			continue
		}
		if got := o.ix.Get(s.k); got != s.v {
			t.Fatalf("Get(%#x) = %v, slot holds %v", s.k, got, s.v)
		}
	}
}

// phases grows the index to about n keys with mostly puts, shrinks it to empty
// with mostly deletes, then mixes both with a sweep every 64 steps.
func (o *indexOracle[K, V]) phases(n int) {
	for len(o.model) < n {
		o.step(70, 10)
	}
	for len(o.model) > 0 {
		o.step(10, 70)
	}
	for i := range 4 * n {
		if i%64 == 63 {
			o.sweep()
			o.check()
		} else {
			o.step(40, 40)
		}
	}
}

// TestIndexMatchesMapOracle runs the oracle over the two key shapes the
// simulator uses (a stack's 64-bit connection key, a switch's 32-bit
// address) with a scalar and a pointer value, and requires the run to have
// grown the array, put keys on occupied home slots, and deleted and swept
// from clusters that wrap past the array's end.
func TestIndexMatchesMapOracle(t *testing.T) {
	o64 := &indexOracle[uint64, int32]{t: t, rng: rand.New(rand.NewSource(39)), model: map[uint64]int32{},
		val: func(r int) int32 { return int32(r%1000) + 1 }}
	o64.phases(600)
	ptrs := make([]*int, 16)
	for i := range ptrs {
		ptrs[i] = new(int)
	}
	o32 := &indexOracle[uint32, *int]{t: t, rng: rand.New(rand.NewSource(40)), model: map[uint32]*int{},
		val: func(r int) *int { return ptrs[r%len(ptrs)] }}
	o32.phases(300)
	for _, o := range []struct {
		name                                            string
		maxLen, collisions, wrapDeletes, wrapSweeps, at int
	}{
		{"uint64", o64.maxLen, o64.collisions, o64.wrapDeletes, o64.wrapSweeps, 1024},
		{"uint32", o32.maxLen, o32.collisions, o32.wrapDeletes, o32.wrapSweeps, 512},
	} {
		if o.maxLen < o.at || o.collisions < 100 || o.wrapDeletes < 20 || o.wrapSweeps < 20 {
			t.Errorf("%s: grew to %d slots (want ≥ %d), %d colliding puts, %d wrap-around deletes, %d swept",
				o.name, o.maxLen, o.at, o.collisions, o.wrapDeletes, o.wrapSweeps)
		}
	}
}

// TestIndexZeroValueIsEmpty: the zero Index answers every query and
// delete without making its array.
func TestIndexZeroValueIsEmpty(t *testing.T) {
	var ix Index[uint64, *int]
	if ix.Get(7) != nil || ix.Delete(7) || ix.Len() != 0 || ix.s.slots != nil {
		t.Fatal("zero Index is not empty")
	}
	ix.Put(7, new(int))
	if len(ix.s.slots) != 8 {
		t.Fatalf("first Put made %d slots, want 8", len(ix.s.slots))
	}
}
