package workspace

import (
	"sync"
	"testing"

	"parcluster/internal/sparse"
)

// TestWorkspaceReuse pins the leak-free recycling contract: a released
// workspace is handed back on the next Acquire (pointer identity, so the
// graph-sized arrays really are reused), and every borrowed piece comes
// back fully reset.
func TestWorkspaceReuse(t *testing.T) {
	const n = 1 << 12
	p := NewPool(n)
	w := p.Acquire()
	if w.Universe() != n {
		t.Fatalf("Universe() = %d, want %d", w.Universe(), n)
	}

	// Dirty every arena the workspace can hand out.
	d1 := w.Dense()
	d2 := w.Dense()
	d1.Add(7, 1.5)
	d1.Add(9, -2.5)
	d2.Set(123, 4.0)
	f := w.Floats() // handed back zeroed by contract, so not dirtied here
	ids := append(w.IDs(), 1, 2, 3)
	_ = ids
	w.Release(2)

	w2 := p.Acquire()
	if w2 != w {
		t.Fatalf("Acquire after Release returned a different workspace: %p vs %p", w2, w)
	}
	r1 := w2.Dense()
	if r1 != d1 {
		t.Fatalf("first Dense() after reuse = %p, want the recycled %p", r1, d1)
	}
	if r1.Len() != 0 || r1.Get(7) != 0 || r1.Get(9) != 0 || r1.Has(7) {
		t.Fatalf("recycled Dense not reset: len=%d v7=%v v9=%v", r1.Len(), r1.Get(7), r1.Get(9))
	}
	if r2 := w2.Dense(); r2 != d2 || r2.Len() != 0 || r2.Get(123) != 0 {
		t.Fatalf("second recycled Dense not reset: %p len=%d", r2, r2.Len())
	}
	// The share array must keep identity (no reallocation)...
	if &w2.Floats()[0] != &f[0] {
		t.Fatal("float buffer was reallocated instead of recycled")
	}
	// ...and the ID buffer must come back empty but with its capacity.
	if got := w2.IDs(); len(got) != 0 || cap(got) != n {
		t.Fatalf("recycled IDs(): len=%d cap=%d, want 0, %d", len(got), cap(got), n)
	}
	w2.Release(1)

	st := p.Stats()
	if st.Acquires != 2 || st.Hits != 1 || st.Misses != 1 || st.Releases != 2 {
		t.Fatalf("stats = %+v, want acquires=2 hits=1 misses=1 releases=2", st)
	}
	// The second checkout borrowed 2 recycled Dense vectors (16n each) +
	// floats (8n) + ids (4n); crediting happens per borrow, so exactly
	// these arenas count.
	want := int64(2*16*n + 8*n + 4*n)
	if st.BytesRecycled != want {
		t.Fatalf("BytesRecycled = %d, want %d", st.BytesRecycled, want)
	}
}

// TestSortBufferReuse pins the β-fraction ranking buffers' recycling
// contract: SortIDs comes back empty with full capacity, SortScratch keeps
// identity across checkouts, and both credit BytesRecycled once per run.
func TestSortBufferReuse(t *testing.T) {
	const n = 1 << 10
	p := NewPool(n)
	w := p.Acquire()
	ids := append(w.SortIDs(), 9, 8, 7)
	_ = ids
	scratch := w.SortScratch(n / 2)
	if len(scratch) != n/2 {
		t.Fatalf("SortScratch(%d) len = %d", n/2, len(scratch))
	}
	if len(w.SortScratch(2*n)) != n {
		t.Fatal("SortScratch must clamp to the universe size")
	}
	before := p.Stats().BytesRecycled
	w.Release(1)

	w2 := p.Acquire()
	if w2 != w {
		t.Fatal("pool did not recycle the workspace")
	}
	got := w2.SortIDs()
	if len(got) != 0 || cap(got) != n {
		t.Fatalf("recycled SortIDs: len=%d cap=%d, want 0, %d", len(got), cap(got), n)
	}
	if &w2.SortScratch(1)[0] != &scratch[0] {
		t.Fatal("SortScratch was reallocated instead of recycled")
	}
	// Two uint32 buffers of capacity n, credited once each on first borrow.
	if d := p.Stats().BytesRecycled - before; d != 2*4*n {
		t.Fatalf("BytesRecycled delta = %d, want %d", d, 2*4*n)
	}
	w2.Release(1)
}

// TestWorkspaceLazyAllocation checks a run that never needs graph-sized
// state pays for none of it: a fresh workspace allocates arenas only on
// demand.
func TestWorkspaceLazyAllocation(t *testing.T) {
	w := New(1 << 16)
	if w.footprint() != 0 {
		t.Fatalf("fresh workspace footprint = %d, want 0", w.footprint())
	}
	if w.HasIDs() {
		t.Fatal("fresh workspace claims an ID buffer")
	}
	w.Release(1) // unpooled release is a reset-only no-op
	if w.footprint() != 0 {
		t.Fatalf("released empty workspace footprint = %d, want 0", w.footprint())
	}
}

// TestWorkspaceDoubleReleasePanics pins the single-ownership contract.
func TestWorkspaceDoubleReleasePanics(t *testing.T) {
	w := New(16)
	w.Release(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	w.Release(1)
}

// TestDenseGrowth checks the freelist grows when a run needs more vectors
// than any previous run, and that the grown freelist recycles thereafter.
func TestDenseGrowth(t *testing.T) {
	p := NewPool(64)
	w := p.Acquire()
	a, b := w.Dense(), w.Dense()
	if a == b {
		t.Fatal("Dense() handed out the same vector twice in one run")
	}
	w.Release(1)
	w = p.Acquire()
	_, _ = w.Dense(), w.Dense()
	c := w.Dense() // third vector: freelist must grow, not corrupt
	c.Add(1, 1)
	w.Release(1)
	w = p.Acquire()
	if got := len(w.dense); got != 3 {
		t.Fatalf("freelist size = %d, want 3", got)
	}
	if third := w.dense[2]; third.Len() != 0 || third.Get(1) != 0 {
		t.Fatal("grown freelist vector not reset on release")
	}
	w.Release(1)
}

// TestPoolConcurrentBorrowRelease hammers two pools from many goroutines
// under the race detector: workspaces checked out concurrently must be
// distinct, usable, and safely recyclable across graphs.
func TestPoolConcurrentBorrowRelease(t *testing.T) {
	pools := []*Pool{NewPool(1024), NewPool(4096)}
	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				p := pools[(gi+i)%len(pools)]
				w := p.Acquire()
				d := w.Dense()
				if d.Len() != 0 {
					t.Errorf("checked-out Dense starts dirty: len=%d", d.Len())
					return
				}
				k := uint32((gi*iters + i) % w.Universe())
				d.Add(k, float64(i))
				if d.Get(k) != float64(i) {
					t.Errorf("Dense readback mismatch")
					return
				}
				if f := w.Floats(); f[int(k)] != 0 {
					t.Errorf("checked-out share array starts dirty")
					return
				}
				w.Release(1)
			}
		}(gi)
	}
	wg.Wait()
	for _, p := range pools {
		st := p.Stats()
		if st.Acquires != st.Releases {
			t.Fatalf("pool universe=%d: acquires %d != releases %d", st.Universe, st.Acquires, st.Releases)
		}
		if st.Hits+st.Misses != st.Acquires {
			t.Fatalf("pool universe=%d: hits+misses %d != acquires %d", st.Universe, st.Hits+st.Misses, st.Acquires)
		}
	}
}

// TestPromoteToDenseInto checks the workspace-borrowing promotion copies
// entries faithfully into a recycled vector.
func TestPromoteToDenseInto(t *testing.T) {
	w := New(256)
	cm := sparse.NewConcurrent(8)
	cm.Add(3, 1.25)
	cm.Add(200, -4)
	d := sparse.PromoteToDenseInto(w.Dense(), cm)
	if d.Len() != 2 || d.Get(3) != 1.25 || d.Get(200) != -4 {
		t.Fatalf("promotion lost entries: len=%d", d.Len())
	}
}
