package sparse

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestIndexSlotsInCreationOrder checks slots are handed out 0, 1, 2, ... in
// the order vertices first claim them, whatever the table's capacity and
// through the growth a full index does on a serial claim, and that a grown
// index keeps every slot's number and column values.
func TestIndexSlotsInCreationOrder(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	var order []uint32
	seen := map[uint32]bool{}
	for len(order) < 3000 {
		if v := uint32(r.Intn(1 << 22)); !seen[v] {
			seen[v] = true
			order = append(order, v)
		}
	}
	for _, capacity := range []int{4, len(order), 64 * len(order)} {
		x := NewIndex(capacity)
		for i, v := range order {
			if s := x.Slot(v); s != uint32(i) {
				t.Fatalf("cap %d: vertex %d got slot %d, want %d", capacity, v, s, i)
			}
			x.Col(0)[i] = float64(i)
			if s := x.Slot(order[i/2]); s != uint32(i/2) { // an existing vertex: no new slot
				t.Fatalf("cap %d: vertex %d moved to slot %d, want %d", capacity, order[i/2], s, i/2)
			}
		}
		if x.Len() != len(order) {
			t.Fatalf("cap %d: Len = %d, want %d", capacity, x.Len(), len(order))
		}
		for i, v := range order {
			if s, ok := x.Find(v); !ok || s != uint32(i) || x.Vertices()[s] != v || x.Col(0)[s] != float64(i) {
				t.Fatalf("cap %d: vertex %d found at slot %d (%t), want %d with its value", capacity, v, s, ok, i)
			}
		}
		if _, ok := x.Find(1 << 23); ok {
			t.Fatalf("cap %d: found a vertex never claimed", capacity)
		}
	}
}

// TestIndexTouchedFirstTouchOrder checks a round's touched list holds each
// slot the round touched once, in first-touch order, that the stamp makes
// "touched this round" exact across rounds, and that the previous round's
// list stays readable while the current one fills.
func TestIndexTouchedFirstTouchOrder(t *testing.T) {
	x := NewIndex(64)
	for v := uint32(0); v < 40; v++ {
		x.Slot(v * 5)
	}
	rounds := [][]uint32{{7, 3, 7, 9, 3, 0}, {3, 12, 7, 12}, {}, {39, 0}}
	want := [][]uint32{{7, 3, 9, 0}, {3, 12, 7}, {}, {39, 0}}
	for ri, touches := range rounds {
		x.NextRound()
		for _, s := range touches {
			x.Touch(s)
		}
		if got := x.List(x.Round()); !slices.Equal(got, want[ri]) {
			t.Fatalf("round %d: touched list %v, want %v", ri, got, want[ri])
		}
		if ri > 0 {
			if prev := x.List(x.Round() - 1); !slices.Equal(prev, want[ri-1]) {
				t.Fatalf("round %d: previous list %v, want %v", ri, prev, want[ri-1])
			}
		}
		for s := uint32(0); s < 40; s++ {
			if x.Touched(s) != slices.Contains(want[ri], s) {
				t.Fatalf("round %d: Touched(%d) = %t", ri, s, x.Touched(s))
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("List of a round two back did not panic")
		}
	}()
	x.List(x.Round() - 2)
}

// TestIndexResetIsEntryProportional checks Reset empties the table and
// zeroes the columns of the slots handed out — and nothing past them, which
// is what keeps it O(entries) rather than O(capacity).
func TestIndexResetIsEntryProportional(t *testing.T) {
	x := NewIndex(1 << 12)
	for v := uint32(0); v < 100; v++ {
		s := x.Slot(v * 601)
		x.Col(0)[s], x.Col(2)[s], x.Aux()[s] = 1, 2, 3
	}
	x.NextRound()
	x.Touch(5)
	col := x.Col(0)
	col[x.Cap()-1] = 42 // past the entries: Reset must not look there
	x.Reset()
	if x.Len() != 0 || len(x.List(x.Round())) != 0 {
		t.Fatalf("Len = %d, touched %d after Reset", x.Len(), len(x.List(x.Round())))
	}
	for v := uint32(0); v < 100; v++ {
		if _, ok := x.Find(v * 601); ok {
			t.Fatalf("vertex %d survived Reset", v*601)
		}
	}
	for s := 0; s < 100; s++ {
		if x.Col(0)[s] != 0 || x.Col(2)[s] != 0 || x.Aux()[s] != 0 {
			t.Fatalf("slot %d's columns survived Reset", s)
		}
	}
	if col[x.Cap()-1] != 42 {
		t.Fatal("Reset cleared past the slots handed out")
	}
	if x.Touched(5) {
		t.Fatal("a stale stamp reads as touched")
	}
	if s := x.Slot(601); s != 0 {
		t.Fatalf("first claim after Reset got slot %d, want 0", s)
	}
}

// TestIndexConcurrentClaims races eight workers over overlapping vertices:
// each vertex gets exactly one slot, the slot counter equals the number of
// distinct vertices, each slot is touched once per round, and the atomic
// adds lose nothing. The gomaxprocs=1 leg pins Claim's publish-wait: a
// reader that finds a vertex claimed but not yet numbered yields, so the
// claimer it waits for gets to run on the one processor there is.
func TestIndexConcurrentClaims(t *testing.T) {
	for _, procs := range []int{1, 0} {
		name := "gomaxprocs=default"
		if procs > 0 {
			name = fmt.Sprintf("gomaxprocs=%d", procs)
		}
		t.Run(name, func(t *testing.T) {
			if procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			}
			requireConcurrentClaims(t)
		})
	}
}

func requireConcurrentClaims(t *testing.T) {
	const vertices, workers, perWorker = 5000, 8, 20000
	x := NewIndex(16)
	x.Reserve(vertices)
	x.NextRound()
	col := x.Col(0)
	slots := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			slots[w] = make([]uint32, vertices)
			for i := 0; i < perWorker; i++ {
				v := uint32(r.Intn(vertices))
				s := x.Claim(v * 3)
				if old := slots[w][v]; old != 0 && old != s+1 {
					t.Errorf("vertex %d claimed slots %d and %d", v*3, old-1, s)
				}
				slots[w][v] = s + 1
				x.TouchAtomic(s)
				AtomicAdd(&col[s], 1)
			}
		}(w)
	}
	wg.Wait()
	distinct := map[uint32]uint32{}
	for w := range slots {
		for v, s := range slots[w] {
			if s == 0 {
				continue
			}
			if old, ok := distinct[uint32(v)]; ok && old != s {
				t.Fatalf("vertex %d has slots %d and %d in two workers", v*3, old-1, s-1)
			}
			distinct[uint32(v)] = s
		}
	}
	if x.Len() != len(distinct) {
		t.Fatalf("slot counter %d, want %d distinct vertices", x.Len(), len(distinct))
	}
	total := 0.0
	for s, v := range x.Vertices()[:x.Len()] {
		if got, ok := x.Find(v); !ok || got != uint32(s) {
			t.Fatalf("slot %d's vertex %d finds slot %d", s, v, got)
		}
		total += col[s]
	}
	if total != workers*perWorker {
		t.Fatalf("atomic adds sum to %v, want %d", total, workers*perWorker)
	}
	listed := slices.Clone(x.List(x.Round()))
	slices.Sort(listed)
	if distinct := slices.Compact(listed); len(x.List(x.Round())) != x.Len() || len(distinct) != x.Len() {
		t.Fatalf("touched list holds %d entries, %d distinct, of %d slots", len(x.List(x.Round())), len(distinct), x.Len())
	}
}

// TestCreationLogUnderConcurrentWriters pins what Len and a column's view
// rest on under concurrent claims: whatever mix of workers claimed the
// vertices, at whatever capacity that holds them, each has one slot below
// Len, Vertices lists each exactly once, and no add is lost.
func TestCreationLogUnderConcurrentWriters(t *testing.T) {
	const keys, workers = 3000, 8
	for round, capacity := range []int{keys, keys / 4, 4 * keys, keys} {
		x := NewIndex(capacity)
		col := x.Col(0)
		n := min(capacity, keys)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(int64(round*workers + w)))
				for i := 0; i < 4*n; i++ {
					AtomicAdd(&col[x.Claim(uint32(2*r.Intn(n/2))*7)], 1) // even keys are shared: racing claims
				}
				for k := 2*w + 1; k < n; k += 2 * workers {
					AtomicAdd(&col[x.Claim(uint32(k)*7)], 1) // odd keys have one writer each
				}
			}(w)
		}
		wg.Wait()
		if x.Len() != n {
			t.Fatalf("round %d: Len = %d, want %d", round, x.Len(), n)
		}
		got := slices.Clone(x.Vertices()[:x.Len()])
		slices.Sort(got)
		for i, k := range got {
			if k != uint32(i)*7 {
				t.Fatalf("round %d: entry %d is key %d, want %d", round, i, k, i*7)
			}
		}
		total := 0.0
		x.View(col, nil).ForEach(func(_ uint32, v float64) { total += v })
		if want := float64(workers*4*n + n/2); total != want {
			t.Fatalf("round %d: the column sums to %v, want %v", round, total, want)
		}
	}
}

// TestCreationOrderIgnoresCapacity pins what one writer reads back through
// a column's view: its entries in the order it created them, whatever the
// index's capacity — a tight one that grows on the way included.
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
	for _, capacity := range []int{4, len(order), 64 * len(order)} {
		x := NewIndex(capacity)
		for i, k := range order {
			x.Slot(k)
			x.Slot(order[i/2]) // an existing vertex: claims nothing
		}
		col := x.Col(0)
		for i, k := range order {
			s, _ := x.Find(k)
			col[s] = float64(i + 1)
		}
		i := 0
		x.View(col, nil).ForEach(func(k uint32, v float64) {
			if k != order[i] || v != float64(i+1) {
				t.Fatalf("cap %d: entry %d is key %d value %v, want key %d value %d", capacity, i, k, v, order[i], i+1)
			}
			i++
		})
		if i != len(order) {
			t.Fatalf("cap %d: %d entries, want %d", capacity, i, len(order))
		}
	}
}

// TestIndexOverflowPanics checks a shared round whose reserved bound is too
// small fails loudly, as the concurrent table does.
func TestIndexOverflowPanics(t *testing.T) {
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "overflow") {
			t.Fatalf("recovered %q, want an overflow panic", msg)
		}
	}()
	x := NewIndex(4)
	for v := uint32(0); v < 1000; v++ {
		x.Claim(v)
	}
}
