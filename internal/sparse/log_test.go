package sparse

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestCreationLogUnderConcurrentWriters pins the log ConcurrentMap's Len
// and ForEach rest on: whatever mix of workers created the entries, at
// whatever capacity, ForEach lists each exactly once and Len counts them.
func TestCreationLogUnderConcurrentWriters(t *testing.T) {
	const keys, workers = 3000, 8
	for round, capacity := range []int{keys, keys / 4, 4 * keys, keys} {
		m := NewConcurrent(capacity)
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
					m.Add(uint32(k)*7, 1) // odd keys have one writer each
				}
			}(w)
		}
		wg.Wait()
		if m.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, m.Len(), n)
		}
		var got []uint32
		total := 0.0
		m.ForEach(func(k uint32, v float64) { got = append(got, k); total += v })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		if len(got) != n {
			t.Fatalf("round %d: ForEach lists %d entries, want %d", round, len(got), n)
		}
		for i, k := range got {
			if k != uint32(i)*7 {
				t.Fatalf("round %d: entry %d is key %d, want %d", round, i, k, i*7)
			}
		}
		if want := float64(workers*4*n + n/2); total != want {
			t.Fatalf("round %d: ForEach's values sum to %v, want %v", round, total, want)
		}
	}
}

// TestCreationOrderIgnoresCapacity pins what one writer gets from the log: it
// reads its entries back in the order it created them, whatever the table's
// capacity, where slot order depended on it.
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
	fill := func(m *ConcurrentMap) {
		for i, k := range order {
			m.AddSerial(k, float64(i))
			m.AddSerial(order[i/2], 1) // an existing key: logs nothing
		}
	}
	tight, roomy := NewConcurrent(len(order)), NewConcurrent(64*len(order))
	fill(tight)
	fill(roomy)
	for name, m := range map[string]*ConcurrentMap{"tight": tight, "roomy": roomy} {
		i := 0
		m.ForEach(func(k uint32, v float64) {
			if k != order[i] || v != tight.Get(k) {
				t.Fatalf("%s: entry %d is key %d value %v, want key %d value %v", name, i, k, v, order[i], tight.Get(k))
			}
			i++
		})
		if i != len(order) {
			t.Fatalf("%s: %d entries, want %d", name, i, len(order))
		}
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
