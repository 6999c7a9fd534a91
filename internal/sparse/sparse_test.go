package sparse

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
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

func TestMapSumCloneKeys(t *testing.T) {
	m := NewMap(0)
	for i := uint32(0); i < 100; i++ {
		m.Set(i, float64(i))
	}
	if got := m.Sum(); got != 4950 {
		t.Fatalf("Sum = %v", got)
	}
	c := m.Clone()
	c.Set(0, 100)
	if m.Get(0) != 0 {
		t.Fatal("Clone is not a deep copy")
	}
	keys := m.Keys()
	if len(keys) != 100 {
		t.Fatalf("Keys len = %d", len(keys))
	}
}

func TestConcurrentBasics(t *testing.T) {
	m := NewConcurrent(10)
	if m.Get(7) != 0 || m.Has(7) {
		t.Fatal("absent key")
	}
	if !m.Add(7, 0.5) {
		t.Fatal("first Add should create")
	}
	if m.Add(7, 0.25) {
		t.Fatal("second Add should not create")
	}
	if got := m.Get(7); got != 0.75 {
		t.Fatalf("Get = %v", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	m.Set(7, -1)
	if got := m.Get(7); got != -1 {
		t.Fatalf("after Set, Get = %v", got)
	}
}

func TestConcurrentMatchesMapSequentially(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ref := NewMap(0)
	m := NewConcurrent(1)
	for i := 0; i < 5000; i++ {
		k := uint32(r.Intn(500))
		d := r.Float64() - 0.5
		m.Reserve(1)
		c1 := ref.Add(k, d)
		c2 := m.Add(k, d)
		if c1 != c2 {
			t.Fatalf("created mismatch for key %d", k)
		}
	}
	if ref.Len() != m.Len() {
		t.Fatalf("Len mismatch: %d vs %d", ref.Len(), m.Len())
	}
	ref.ForEach(func(k uint32, v float64) {
		if got := m.Get(k); math.Abs(got-v) > 1e-12 {
			t.Fatalf("key %d: %v vs %v", k, got, v)
		}
	})
}

func TestConcurrentParallelAdds(t *testing.T) {
	// Many goroutines hammer overlapping keys; total must be exact (each
	// delta is a power of two so float addition is exact regardless of
	// order) and created must fire exactly once per key.
	const keys = 1000
	const workers = 16
	const addsPerWorker = 2000
	m := NewConcurrent(keys)
	var createdCount sync.Map
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < addsPerWorker; i++ {
				k := uint32(r.Intn(keys))
				if m.Add(k, 1.0) {
					if _, loaded := createdCount.LoadOrStore(k, true); loaded {
						t.Errorf("key %d created twice", k)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := m.Sum(runtime.GOMAXPROCS(0))
	if total != workers*addsPerWorker {
		t.Fatalf("Sum = %v, want %d", total, workers*addsPerWorker)
	}
	created := 0
	createdCount.Range(func(_, _ any) bool { created++; return true })
	if created != m.Len() {
		t.Fatalf("created %d keys but Len = %d", created, m.Len())
	}
}

func TestConcurrentReserveRehash(t *testing.T) {
	m := NewConcurrent(4)
	for k := uint32(0); k < 4; k++ {
		m.Add(k, float64(k))
	}
	m.Reserve(1000)
	for k := uint32(4); k < 1000; k++ {
		m.Add(k, float64(k))
	}
	for k := uint32(0); k < 1000; k++ {
		if got := m.Get(k); got != float64(k) {
			t.Fatalf("key %d lost after rehash: %v", k, got)
		}
	}
}

func TestConcurrentReset(t *testing.T) {
	m := NewConcurrent(100)
	for k := uint32(0); k < 100; k++ {
		m.Add(k, 1)
	}
	m.Reset(2, 50)
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	for k := uint32(0); k < 100; k++ {
		if m.Has(k) {
			t.Fatalf("key %d survived Reset", k)
		}
	}
	// Reset to a larger capacity must reallocate.
	m.Reset(2, 10000)
	for k := uint32(0); k < 10000; k++ {
		m.Add(k, 1)
	}
	if m.Len() != 10000 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestConcurrentKeysAndForEach(t *testing.T) {
	m := NewConcurrent(64)
	want := map[uint32]float64{}
	for k := uint32(0); k < 64; k++ {
		m.Add(k*3, float64(k))
		want[k*3] = float64(k)
	}
	got := map[uint32]float64{}
	m.ForEach(func(k uint32, v float64) { got[k] = v })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %d: %v vs %v", k, got[k], v)
		}
	}
	keys := m.Keys(4)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	if len(keys) != 64 {
		t.Fatalf("Keys len = %d", len(keys))
	}
	for i, k := range keys {
		if k != uint32(i*3) {
			t.Fatalf("Keys[%d] = %d", i, k)
		}
	}
}

func TestConcurrentToMap(t *testing.T) {
	m := NewConcurrent(10)
	m.Add(1, 0.5)
	m.Add(9, 1.5)
	sm := m.ToMap()
	if sm.Len() != 2 || sm.Get(1) != 0.5 || sm.Get(9) != 1.5 {
		t.Fatalf("ToMap mismatch: %v %v", sm.Get(1), sm.Get(9))
	}
}

func TestConcurrentAdversarialKeys(t *testing.T) {
	// Keys engineered to collide under the mask exercise linear probing.
	m := NewConcurrent(256)
	var ks []uint32
	for i := 0; i < 200; i++ {
		ks = append(ks, uint32(i*65536)) // many share low hash bits pre-mix
	}
	for _, k := range ks {
		m.Add(k, 1)
	}
	for _, k := range ks {
		if m.Get(k) != 1 {
			t.Fatalf("key %d lost", k)
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
		m := NewConcurrent(n + 1)
		for i := 0; i < n; i++ {
			k := keys[i] % 1000
			d := deltas[i]
			if math.IsNaN(d) || math.IsInf(d, 0) {
				d = 1
			}
			ref.Add(k, d)
			m.Add(k, d)
		}
		ok := true
		ref.ForEach(func(k uint32, v float64) {
			got := m.Get(k)
			if math.Abs(got-v) > 1e-9*(1+math.Abs(v)) {
				ok = false
			}
		})
		return ok && ref.Len() == m.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestIDMapSequential(t *testing.T) {
	m := NewIDMap(100)
	a := m.Assign(42)
	b := m.Assign(7)
	c := m.Assign(42)
	if a != c {
		t.Fatalf("same key got different IDs: %d vs %d", a, c)
	}
	if a == b {
		t.Fatal("different keys share an ID")
	}
	if m.Count() != 2 {
		t.Fatalf("Count = %d", m.Count())
	}
}

func TestIDMapConcurrentDense(t *testing.T) {
	const distinct = 500
	const workers = 8
	m := NewIDMap(distinct)
	ids := make([][]int32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]int32, distinct)
			for k := 0; k < distinct; k++ {
				ids[w][k] = m.Assign(uint32(k * 13))
			}
		}(w)
	}
	wg.Wait()
	if m.Count() != distinct {
		t.Fatalf("Count = %d, want %d", m.Count(), distinct)
	}
	// All workers must agree on every key's ID, and IDs must be a
	// permutation of [0, distinct).
	seen := make([]bool, distinct)
	for k := 0; k < distinct; k++ {
		id := ids[0][k]
		for w := 1; w < workers; w++ {
			if ids[w][k] != id {
				t.Fatalf("key %d: worker 0 got %d, worker %d got %d", k, id, w, ids[w][k])
			}
		}
		if id < 0 || int(id) >= distinct {
			t.Fatalf("id %d out of range", id)
		}
		if seen[id] {
			t.Fatalf("id %d assigned twice", id)
		}
		seen[id] = true
	}
}

func TestConcurrentOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	m := NewConcurrent(4)
	for k := uint32(0); k < 1000; k++ {
		m.Add(k, 1)
	}
}

func TestSumParallel(t *testing.T) {
	m := NewConcurrent(100000)
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

func BenchmarkConcurrentAddDisjoint(b *testing.B) {
	m := NewConcurrent(1 << 20)
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			m.Add(uint32(r.Intn(1<<19)), 1)
		}
	})
}

func BenchmarkConcurrentAddContended(b *testing.B) {
	// All goroutines hit 64 keys: the contention regime the paper calls out
	// for naive rand-HK-PR aggregation.
	m := NewConcurrent(1 << 10)
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(rand.Int63()))
		for pb.Next() {
			m.Add(uint32(r.Intn(64)), 1)
		}
	})
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

func TestDenseConcurrentAddsMatchConcurrentMap(t *testing.T) {
	const n = 4096
	const workers = 8
	const perWorker = 20000
	d := NewDense(n)
	cm := NewConcurrent(n)
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
	// Replay sequentially into the hash table and compare.
	for w := 0; w < workers; w++ {
		r := uint32(w*2654435761 + 1)
		for i := 0; i < perWorker; i++ {
			r = r*1664525 + 1013904223
			cm.Add(r%n, 1)
		}
	}
	if d.Len() != cm.Len() {
		t.Fatalf("support %d != %d", d.Len(), cm.Len())
	}
	cm.ForEach(func(k uint32, v float64) {
		if d.Get(k) != v {
			t.Fatalf("d[%d] = %v, want %v", k, d.Get(k), v)
		}
	})
	if ds, cs := d.Sum(4), cm.Sum(4); ds != cs {
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
	cm := NewConcurrent(16)
	cm.Add(1, 0.5)
	cm.Add(300, 1.5)
	d := PromoteToDense(1000, cm)
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

// TestIDMapAssignSingleProc exercises the Assign publish-wait under
// GOMAXPROCS-constrained contention: with the Gosched in the spin loop the
// waiters always let the claimer publish.
// TestOwnedOpsMatchAtomicOps drives the single-accessor operations the way a
// pull round does — each key owned by exactly one of several goroutines —
// and checks them against the atomic ones: same values to the bit, same key
// set, every key listed once, on both Table implementations. Run under
// -race this also pins that owned keys never share a word.
func TestOwnedOpsMatchAtomicOps(t *testing.T) {
	const n, workers = 4096, 4
	for name, mk := range map[string]func() Table{
		"dense": func() Table { return NewDense(n) },
		"hash":  func() Table { return NewConcurrent(n) },
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

func TestIDMapAssignSingleProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m := NewIDMap(256)
	var wg sync.WaitGroup
	ids := make([][]int32, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]int32, 128)
			for k := uint32(0); k < 128; k++ {
				out[k] = m.Assign(k)
			}
			ids[w] = out
		}(w)
	}
	wg.Wait()
	if m.Count() != 128 {
		t.Fatalf("Count = %d, want 128", m.Count())
	}
	for w := 1; w < 4; w++ {
		for k := range ids[0] {
			if ids[w][k] != ids[0][k] {
				t.Fatalf("worker %d got id %d for key %d, worker 0 got %d",
					w, ids[w][k], k, ids[0][k])
			}
		}
	}
}
