package sparse

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"parcluster/internal/parallel"
)

func TestMapBasics(t *testing.T) {
	m := NewMap(4)
	if m.Get(5) != 0 {
		t.Fatal("absent key should read 0")
	}
	if m.Has(5) {
		t.Fatal("Has on absent key")
	}
	if created := m.Add(5, 1.5); !created {
		t.Fatal("first Add should create")
	}
	if created := m.Add(5, 2.5); created {
		t.Fatal("second Add should not create")
	}
	if got := m.Get(5); got != 4.0 {
		t.Fatalf("Get = %v, want 4", got)
	}
	m.Set(5, 1)
	if got := m.Get(5); got != 1 {
		t.Fatalf("after Set, Get = %v", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	m.Delete(5)
	if m.Has(5) || m.Len() != 0 {
		t.Fatal("Delete failed")
	}
}

// The TestConcurrent* tests check Index as the phase-concurrent table:
// Claim, Find and AtomicAdd on one float column, against Map.

// TestConcurrentBasics checks the shared-phase operations on a few keys:
// Find misses an unclaimed vertex, Claim hands out slots 0, 1, ... once per
// vertex, and AtomicAdd accumulates into the slot's column.
func TestConcurrentBasics(t *testing.T) {
	x := NewIndex(10)
	col := x.Col(0)
	if _, ok := x.Find(7); ok || x.Len() != 0 {
		t.Fatal("an empty index finds a vertex")
	}
	s := x.Claim(7)
	if s != 0 || x.Len() != 1 {
		t.Fatalf("first claim: slot %d, Len %d", s, x.Len())
	}
	if s2 := x.Claim(42); s2 != 1 || x.Len() != 2 {
		t.Fatalf("second vertex: slot %d, Len %d", s2, x.Len())
	}
	if again := x.Claim(7); again != s || x.Len() != 2 {
		t.Fatalf("a vertex claimed again moved to slot %d (Len %d)", again, x.Len())
	}
	AtomicAdd(&col[s], 0.5)
	AtomicAdd(&col[s], 0.25)
	if got, ok := x.Find(7); !ok || got != s || col[got] != 0.75 || x.Vertices()[got] != 7 {
		t.Fatalf("Find(7) = %d (%t), value %v", got, ok, col[got])
	}
}

func TestConcurrentMatchesMapSequentially(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ref := NewMap(0)
	x := NewIndex(500)
	col := x.Col(0)
	for i := 0; i < 5000; i++ {
		k := uint32(r.Intn(500))
		d := r.Float64() - 0.5
		c1 := ref.Add(k, d)
		n := x.Len()
		AtomicAdd(&col[x.Claim(k)], d)
		if c2 := x.Len() > n; c1 != c2 {
			t.Fatalf("created mismatch for key %d", k)
		}
	}
	if ref.Len() != x.Len() {
		t.Fatalf("Len mismatch: %d vs %d", ref.Len(), x.Len())
	}
	ref.ForEach(func(k uint32, v float64) {
		if s, ok := x.Find(k); !ok || math.Abs(col[s]-v) > 1e-12 {
			t.Fatalf("key %d: %v vs %v", k, col[s], v)
		}
	})
}

// TestConcurrentParallelAdds has many goroutines claim and add to
// overlapping keys: every worker sees the same slot for a key, the slots
// are exactly [0, distinct), and the total is exact (each delta is a power
// of two, so float addition is exact regardless of order).
func TestConcurrentParallelAdds(t *testing.T) {
	const keys = 1000
	const workers = 16
	const addsPerWorker = 2000
	x := NewIndex(keys)
	col := x.Col(0)
	slots := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			slots[w] = make([]uint32, keys) // slot+1; 0 = never claimed here
			for i := 0; i < addsPerWorker; i++ {
				k := r.Intn(keys)
				s := x.Claim(uint32(k))
				slots[w][k] = s + 1
				AtomicAdd(&col[s], 1.0)
			}
		}(w)
	}
	wg.Wait()
	owner := make(map[uint32]uint32)
	for w := range slots {
		for k, s := range slots[w] {
			if s == 0 {
				continue
			}
			if int(s) > x.Len() {
				t.Fatalf("key %d got slot %d past Len %d", k, s-1, x.Len())
			}
			if old, ok := owner[s]; ok && old != uint32(k) {
				t.Fatalf("slot %d claimed by keys %d and %d", s-1, old, k)
			}
			owner[s] = uint32(k)
		}
	}
	if len(owner) != x.Len() {
		t.Fatalf("%d slots seen, Len = %d", len(owner), x.Len())
	}
	total := 0.0
	Snapshot(x.View(col, nil), 1).ForEach(func(_ uint32, v float64) { total += v })
	if total != workers*addsPerWorker {
		t.Fatalf("Sum = %v, want %d", total, workers*addsPerWorker)
	}
}

// TestConcurrentKeysAndForEach checks a column viewed as a Source lists
// every entry once, in slot (creation) order.
func TestConcurrentKeysAndForEach(t *testing.T) {
	x := NewIndex(64)
	col := x.Col(0)
	for k := uint32(0); k < 64; k++ {
		col[x.Claim(k*3)] = float64(k + 1)
	}
	view := x.View(col, nil)
	if view.Len() != 64 {
		t.Fatalf("view lists %d entries, want 64", view.Len())
	}
	i := uint32(0)
	view.ForEach(func(k uint32, v float64) {
		if k != i*3 || v != float64(i+1) {
			t.Fatalf("entry %d is key %d value %v, want key %d value %d: not in creation order", i, k, v, i*3, i+1)
		}
		i++
	})
	if i != 64 {
		t.Fatalf("ForEach visited %d entries, want 64", i)
	}
}

func TestConcurrentAdversarialKeys(t *testing.T) {
	// Keys that share their low bits, and keys whose Fibonacci products
	// share their top bits, exercise linear probing.
	x := NewIndex(256)
	var ks []uint32
	for i := uint32(0); i < 100; i++ {
		ks = append(ks, i*65536, i<<24|1)
	}
	for _, k := range ks {
		x.Claim(k)
	}
	for i, k := range ks {
		if s, ok := x.Find(k); !ok || s != uint32(i) {
			t.Fatalf("key %d at slot %d (%t), want %d", k, s, ok, i)
		}
	}
}

func TestConcurrentQuickAgainstMap(t *testing.T) {
	f := func(keys []uint32, deltas []float64) bool {
		n := len(keys)
		if len(deltas) < n {
			n = len(deltas)
		}
		ref := NewMap(n)
		x := NewIndex(n + 1)
		col := x.Col(0)
		for i := 0; i < n; i++ {
			k := keys[i] % 1000
			d := deltas[i]
			if math.IsNaN(d) || math.IsInf(d, 0) {
				d = 1
			}
			ref.Add(k, d)
			AtomicAdd(&col[x.Claim(k)], d)
		}
		ok := true
		ref.ForEach(func(k uint32, v float64) {
			s, found := x.Find(k)
			if !found || math.Abs(col[s]-v) > 1e-9*(1+math.Abs(v)) {
				ok = false
			}
		})
		return ok && ref.Len() == x.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentOverflowPanics races workers past a shared phase's reserved
// bound: every one of them fails loudly — the claimer that overflows, and
// any reader that finds its unpublished entry — and none waits forever.
func TestConcurrentOverflowPanics(t *testing.T) {
	const workers = 4
	x := NewIndex(100)
	msgs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() { msgs[w], _ = recover().(string) }()
			for k := uint32(0); k < 1000; k++ {
				x.Claim(k)
			}
		}(w)
	}
	wg.Wait()
	for w, msg := range msgs {
		if !strings.Contains(msg, "overflow") {
			t.Fatalf("worker %d recovered %q, want an overflow panic", w, msg)
		}
	}
}

func TestSumParallel(t *testing.T) {
	m := NewDense(100000)
	want := 0.0
	for k := uint32(0); k < 100000; k++ {
		m.Add(k, 0.5)
		want += 0.5
	}
	for _, p := range []int{1, 4, parallel.ResolveProcs(0)} {
		if got := m.Sum(p); got != want {
			t.Fatalf("p=%d: Sum = %v, want %v", p, got, want)
		}
	}
}

func BenchmarkMapAdd(b *testing.B) {
	m := NewMap(1 << 20)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		m.Add(uint32(r.Intn(1<<19)), 1)
	}
}

// --- Dense flat vector ---

func TestDenseBasics(t *testing.T) {
	d := NewDense(100)
	if d.Len() != 0 || d.Get(5) != 0 || d.Has(5) {
		t.Fatal("fresh Dense not empty")
	}
	if created := d.Add(5, 1.5); !created {
		t.Fatal("first Add should create")
	}
	if created := d.Add(5, 1.0); created {
		t.Fatal("second Add should not create")
	}
	if d.Get(5) != 2.5 || d.Len() != 1 || !d.Has(5) {
		t.Fatalf("Get/Len/Has after adds: %v %d", d.Get(5), d.Len())
	}
	if created := d.Set(7, 3.0); !created {
		t.Fatal("Set of new key should create")
	}
	d.Set(7, 4.0)
	if d.Get(7) != 4.0 || d.Len() != 2 {
		t.Fatalf("Set overwrite: %v len=%d", d.Get(7), d.Len())
	}
	if s := d.Sum(1); s != 6.5 {
		t.Fatalf("Sum = %v, want 6.5", s)
	}
	keys := d.Keys(1)
	if len(keys) != 2 {
		t.Fatalf("Keys = %v", keys)
	}
	// Zero values remain present entries (⊥ = absent only).
	d.Set(9, 0)
	if !d.Has(9) || d.Len() != 3 {
		t.Fatal("explicit zero entry not tracked")
	}
	d.Reset(1, 0)
	if d.Len() != 0 || d.Get(5) != 0 || d.Has(7) || d.Has(9) {
		t.Fatal("Reset did not clear touched entries")
	}
	// Reusable after reset.
	d.Add(11, 1)
	if d.Len() != 1 || d.Get(11) != 1 {
		t.Fatal("Dense unusable after Reset")
	}
}

func TestDenseConcurrentAddsMatchMap(t *testing.T) {
	const n = 4096
	const workers = 8
	const perWorker = 20000
	d := NewDense(n)
	ref := NewMap(n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := uint32(w*2654435761 + 1)
			for i := 0; i < perWorker; i++ {
				r = r*1664525 + 1013904223
				k := r % n
				d.Add(k, 1)
			}
		}(w)
	}
	wg.Wait()
	// Replay sequentially into the map and compare.
	for w := 0; w < workers; w++ {
		r := uint32(w*2654435761 + 1)
		for i := 0; i < perWorker; i++ {
			r = r*1664525 + 1013904223
			ref.Add(r%n, 1)
		}
	}
	if d.Len() != ref.Len() {
		t.Fatalf("support %d != %d", d.Len(), ref.Len())
	}
	ref.ForEach(func(k uint32, v float64) {
		if d.Get(k) != v {
			t.Fatalf("d[%d] = %v, want %v", k, d.Get(k), v)
		}
	})
	cs := 0.0
	ref.ForEach(func(_ uint32, v float64) { cs += v })
	if ds := d.Sum(4); ds != cs {
		t.Fatalf("sums differ: %v vs %v", ds, cs)
	}
	// Each touched key appears exactly once in the touched list.
	seen := map[uint32]bool{}
	for _, k := range d.Keys(2) {
		if seen[k] {
			t.Fatalf("key %d recorded twice", k)
		}
		seen[k] = true
	}
}

func TestPromoteToDense(t *testing.T) {
	m := NewMap(16)
	m.Add(1, 0.5)
	m.Add(300, 1.5)
	d := PromoteToDense(1000, m)
	if d.Len() != 2 || d.Get(1) != 0.5 || d.Get(300) != 1.5 {
		t.Fatalf("promotion lost entries: len=%d", d.Len())
	}
	if d.Universe() != 1000 {
		t.Fatalf("Universe = %d", d.Universe())
	}
}

func TestDenseResetIsTouchedProportional(t *testing.T) {
	// Reset must clear only touched entries: untouched slots keep working
	// and the touched list restarts.
	d := NewDense(1 << 16)
	for i := uint32(0); i < 100; i++ {
		d.Add(i*601, float64(i))
	}
	d.Reset(4, 0)
	for i := uint32(0); i < 100; i++ {
		if d.Get(i*601) != 0 {
			t.Fatalf("slot %d survived reset", i*601)
		}
	}
	d.Add(42, 1)
	if ks := d.Keys(1); len(ks) != 1 || ks[0] != 42 {
		t.Fatalf("touched list after reset: %v", ks)
	}
}

// TestOwnedOpsMatchAtomicOps drives Dense's single-accessor operations the
// way a pull round does — each key owned by exactly one of several
// goroutines — and checks them against the atomic ones: same values to the
// bit, same key set, every key listed once. Run under -race this also pins
// that owned keys never share a word.
func TestOwnedOpsMatchAtomicOps(t *testing.T) {
	const n, workers = 4096, 4
	for name, mk := range map[string]func() *Dense{
		"dense": func() *Dense { return NewDense(n) },
	} {
		owned, atomicT := mk(), mk()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := uint32(w); k < n; k += workers {
					if k%3 == 0 {
						continue
					}
					for i := 1; i <= 3; i++ {
						owned.AddOwned(k, 1/float64(i+int(k)))
						atomicT.Add(k, 1/float64(i+int(k)))
					}
				}
			}(w)
		}
		wg.Wait()
		if owned.Len() != atomicT.Len() || len(owned.Keys(2)) != owned.Len() {
			t.Fatalf("%s: %d keys (%d listed), want %d", name, owned.Len(), len(owned.Keys(2)), atomicT.Len())
		}
		atomicT.ForEach(func(k uint32, v float64) {
			if got := owned.Get(k); math.Float64bits(got) != math.Float64bits(v) {
				t.Fatalf("%s: key %d: %v, want %v", name, k, got, v)
			}
		})
	}
}

// TestDenseDeferredListing pins the pull round's listing protocol: while
// deferring, AddOwned creates keys without listing them; PutOwned then
// reports exactly the pending keys and the nonzero-valued new ones as
// created, leaves zero-valued absent keys absent, and overwrites listed keys
// in place; Touch lists the created ones; Reset clears everything.
func TestDenseDeferredListing(t *testing.T) {
	d := NewDense(16)
	d.AddOwned(1, 1.5) // listed at once
	d.Defer(true)
	d.AddOwned(1, 0.5) // already listed: stays listed
	d.AddOwned(2, 2.5) // pending
	if d.Len() != 1 || !d.Has(2) || d.Get(2) != 2.5 {
		t.Fatalf("deferring AddOwned: len=%d has(2)=%t v=%v", d.Len(), d.Has(2), d.Get(2))
	}
	var created []uint32
	for k, v := range map[uint32]float64{1: 2, 2: 3, 3: 0, 4: 4.5} {
		if d.PutOwned(k, v) {
			created = append(created, k)
		}
	}
	d.Defer(false)
	slices.Sort(created)
	if !slices.Equal(created, []uint32{2, 4}) {
		t.Fatalf("PutOwned created %v, want [2 4]", created)
	}
	d.Touch(created)
	keys := slices.Clone(d.Keys(1))
	slices.Sort(keys)
	if !slices.Equal(keys, []uint32{1, 2, 4}) || d.Has(3) {
		t.Fatalf("keys after Touch = %v, has(3)=%t; want [1 2 4], false", keys, d.Has(3))
	}
	if d.Get(1) != 2 || d.Get(2) != 3 || d.Get(4) != 4.5 {
		t.Fatalf("values %v %v %v, want 2 3 4.5", d.Get(1), d.Get(2), d.Get(4))
	}
	d.Reset(1, 0)
	d.AddOwned(2, 1) // listing is back on
	if d.Len() != 1 || d.Has(1) || d.Has(4) || d.Get(2) != 1 {
		t.Fatalf("after Reset: len=%d has(1)=%t has(4)=%t v2=%v", d.Len(), d.Has(1), d.Has(4), d.Get(2))
	}
}
