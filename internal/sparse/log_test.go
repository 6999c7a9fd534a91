package sparse

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestCreationLogUnderConcurrentWriters pins the log every capacity-free
// operation of ConcurrentMap now rests on: whatever mix of workers created
// the entries, Keys and ForEach list each exactly once, Len counts them, and
// Reset — which clears the logged slots and nothing else — leaves the whole
// table empty, slot by slot, ready for a smaller or a larger phase.
func TestCreationLogUnderConcurrentWriters(t *testing.T) {
	const keys, workers = 3000, 8
	m := NewConcurrent(16)
	for round, capacity := range []int{keys, keys / 4, 4 * keys, keys} {
		m.Reset(4, capacity)
		n := capacity
		if n > keys {
			n = keys
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*workers + w)))
				for i := 0; i < 4*n; i++ {
					m.Add(uint32(2*r.Intn(n/2))*7, 1) // even keys are shared: racing claims
				}
				for k := 2*w + 1; k < n; k += 2 * workers {
					m.AddOwned(uint32(k)*7, 1) // odd keys have one owner each
				}
			}(w)
		}
		wg.Wait()
		if m.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, m.Len(), n)
		}
		got := m.Keys(4)
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != n {
			t.Fatalf("round %d: Keys lists %d entries, want %d", round, len(got), n)
		}
		for i, k := range got {
			if k != uint32(i)*7 {
				t.Fatalf("round %d: Keys[%d] = %d, want %d", round, i, k, i*7)
			}
		}
		seen, total := 0, 0.0
		m.ForEach(func(_ uint32, v float64) { seen++; total += v })
		if want := float64(workers*4*n + n/2); seen != n || total != want || m.Sum(4) != want {
			t.Fatalf("round %d: ForEach saw %d entries summing to %v (Sum %v), want %d and %v", round, seen, total, m.Sum(4), n, want)
		}
		m.Reset(4, 0)
		if m.Len() != 0 {
			t.Fatalf("round %d: Len = %d after Reset", round, m.Len())
		}
		for i := range m.keys {
			if m.keys[i] != emptyKey || m.vals[i] != 0 {
				t.Fatalf("round %d: slot %d holds key %d value %#x after Reset", round, i, m.keys[i], m.vals[i])
			}
		}
	}
}

// TestCreationOrderIgnoresCapacity pins what one writer gets from the log: it
// reads its entries back in the order it created them — through Reserve's
// rehashes too — whatever the table's capacity, where slot order depended on
// it. The engine's one-worker bits rest on this.
func TestCreationOrderIgnoresCapacity(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	var order []uint32
	seen := map[uint32]bool{}
	for len(order) < 2000 {
		if k := uint32(r.Intn(1 << 20)); !seen[k] {
			seen[k] = true
			order = append(order, k)
		}
	}
	fill := func(m *ConcurrentMap, reserve bool) {
		for i, k := range order {
			if reserve {
				m.Reserve(1)
			}
			if i%2 == 0 {
				m.AddSerial(k, float64(i))
			} else {
				m.AddOwned(k, float64(i))
			}
			m.AddSerial(order[i/2], 1) // an existing key: logs nothing
		}
	}
	tight, roomy, grown := NewConcurrent(len(order)), NewConcurrent(64*len(order)), NewConcurrent(4)
	fill(tight, false)
	fill(roomy, false)
	fill(grown, true)
	for name, m := range map[string]*ConcurrentMap{"tight": tight, "roomy": roomy, "grown by Reserve": grown} {
		keys := m.Keys(1)
		if len(keys) != len(order) {
			t.Fatalf("%s: %d keys, want %d", name, len(keys), len(order))
		}
		i := 0
		m.ForEach(func(k uint32, v float64) {
			if k != order[i] || keys[i] != k || v != tight.Get(k) {
				t.Fatalf("%s: entry %d is key %d (Keys says %d) value %v, want key %d value %v", name, i, k, keys[i], v, order[i], tight.Get(k))
			}
			i++
		})
	}
}

// TestSerialOverflowPanics is TestConcurrentOverflowPanics for the
// single-writer path: outgrowing the reserved bound must fail loudly there
// too.
func TestSerialOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected overflow panic")
		}
	}()
	m := NewConcurrent(4)
	for k := uint32(0); k < 1000; k++ {
		m.AddSerial(k, 1)
	}
}
