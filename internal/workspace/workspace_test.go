package workspace

import (
	"sync"
	"testing"

	"parcluster/internal/sparse"
)

// TestWorkspaceReuse pins the leak-free recycling contract: a released
// workspace is handed back on the next Acquire (pointer identity), its
// index comes back (pointer identity again, so its arrays really are
// reused) and empty, and the graph-sized buffers keep their storage.
func TestWorkspaceReuse(t *testing.T) {
	const n = 1 << 12
	p := NewPool(n)
	w := p.Acquire()
	if w.Universe() != n {
		t.Fatalf("Universe() = %d, want %d", w.Universe(), n)
	}

	// Dirty every arena the workspace can hand out.
	x := w.Index()
	s7, s9 := x.Slot(7), x.Slot(9)
	x.Col(0)[s7], x.Col(1)[s9], x.Aux()[s9] = 1.5, -2.5, 3
	f := w.Floats() // handed back zeroed by contract, so not dirtied here
	ids := append(w.IDs(), 1, 2, 3)
	_ = ids
	w.Release(2)

	w2 := p.Acquire()
	if w2 != w {
		t.Fatalf("Acquire after Release returned a different workspace: %p vs %p", w2, w)
	}
	r := w2.Index()
	if r != x {
		t.Fatalf("Index() after reuse = %p, want the recycled %p", r, x)
	}
	if _, ok := r.Find(7); ok || r.Len() != 0 || r.Col(0)[s7] != 0 || r.Col(1)[s9] != 0 || r.Aux()[s9] != 0 {
		t.Fatalf("recycled index not cleared: len=%d", r.Len())
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
	// The second checkout borrowed the recycled index + floats (8n) + ids
	// (4n); crediting happens per borrow, so exactly these arenas count.
	want := x.Bytes() + 8*n + 4*n
	if st.BytesRecycled != want {
		t.Fatalf("BytesRecycled = %d, want %d", st.BytesRecycled, want)
	}
}

// TestTableGrowth checks a workspace keeps up with a run that needs more:
// an index a run grew comes back at its grown capacity, with its columns,
// and empty.
func TestTableGrowth(t *testing.T) {
	p := NewPool(1 << 16)
	w := p.Acquire()
	x := w.Index()
	small := x.Cap()
	x.Col(2)
	x.Reserve(small + 1) // grown mid-run, as the engine's rounds do
	for v := uint32(0); int(v) <= small; v++ {
		x.Col(2)[x.Slot(v)] = 1
	}
	grown := x.Cap()
	w.Release(1)

	w = p.Acquire()
	if got := w.Index(); got != x || got.Cap() != grown || got.Len() != 0 || len(got.Col(2)) != grown {
		t.Fatalf("grown index not kept in place: %p (want %p) cap=%d (want %d) len=%d", got, x, got.Cap(), grown, got.Len())
	}
	for _, v := range x.Col(2) {
		if v != 0 {
			t.Fatal("kept index's column not cleared on release")
		}
	}
	w.Release(1)
}

// TestTableCap checks Release keeps no index larger than the engine's
// promotion bound, n/PromoteFrac slots (keepFloor on a small graph), and
// keeps one of exactly that size: only a pinned-sparse run grows an index
// past it.
func TestTableCap(t *testing.T) {
	for n, want := range map[int]int{1 << 16: (1 << 16) / PromoteFrac, 1 << 10: keepFloor} {
		p := NewPool(n)
		w := p.Acquire()
		limit := w.keepCap()
		if limit != want {
			t.Fatalf("n=%d: keepCap = %d, want %d", n, limit, want)
		}
		atCap := w.Index()
		atCap.Reserve(limit)
		if atCap.Cap() != limit {
			t.Fatalf("n=%d: setup cap %d against limit %d", n, atCap.Cap(), limit)
		}
		w.Release(1)
		if w.footprint() != atCap.Bytes() {
			t.Fatalf("n=%d: released footprint = %d, want the capped index's %d", n, w.footprint(), atCap.Bytes())
		}

		w = p.Acquire()
		over := w.Index()
		if over != atCap {
			t.Fatalf("n=%d: an index at the cap was not kept", n)
		}
		over.Reserve(limit + 1)
		w.Release(1)
		if w.footprint() != 0 {
			t.Fatalf("n=%d: an oversize index (cap %d > %d) was kept: footprint %d", n, over.Cap(), limit, w.footprint())
		}
		w = p.Acquire()
		if got := w.Index(); got == over || got.Cap() > limit {
			t.Fatalf("n=%d: an oversize index (cap %d > %d) was kept", n, got.Cap(), limit)
		}
		w.Release(1)
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
	w.Release(1) // unpooled release keeps and clears nothing
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
				x := w.Index()
				if x.Len() != 0 {
					t.Errorf("checked-out index starts dirty: len=%d", x.Len())
					return
				}
				k := uint32((gi*iters + i) % w.Universe())
				x.Col(0)[x.Slot(k)] += float64(i)
				if s, ok := x.Find(k); !ok || x.Col(0)[s] != float64(i) {
					t.Errorf("index readback mismatch")
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

// TestPromoteBorrowedTable checks promotion copies a borrowed index
// column's entries faithfully into a flat vector and leaves the index to
// the workspace, which clears it at Release.
func TestPromoteBorrowedTable(t *testing.T) {
	p := NewPool(256)
	w := p.Acquire()
	x := w.Index()
	col := x.Col(0)
	col[x.Slot(3)], col[x.Slot(200)] = 1.25, -4
	d := sparse.PromoteToDense(256, x.View(col, nil))
	if d.Len() != 2 || d.Get(3) != 1.25 || d.Get(200) != -4 {
		t.Fatalf("promotion lost entries: len=%d", d.Len())
	}
	w.Release(1)
	if _, ok := x.Find(3); ok || x.Len() != 0 || col[0] != 0 || d.Get(3) != 1.25 {
		t.Fatal("Release must clear the index and leave the promoted vector alone")
	}
}

// TestDropIndex checks a run that stops using its index gives it up early
// only where Release would not keep it: always when unpooled, above the
// cap when pooled.
func TestDropIndex(t *testing.T) {
	w := New(1 << 12)
	w.Index()
	w.DropIndex()
	if w.index != nil {
		t.Fatal("an unpooled workspace kept its index")
	}
	p := NewPool(1 << 12)
	w = p.Acquire()
	x := w.Index()
	w.DropIndex()
	if w.index != x {
		t.Fatal("a pooled index under the cap was dropped")
	}
	x.Reserve(w.keepCap() + 1)
	w.DropIndex()
	if w.index != nil {
		t.Fatal("a pooled index over the cap was kept")
	}
	w.Release(1)
}

// TestPromoteAt pins the two promotion points: an unpooled run goes flat at
// half of n/PromoteFrac slots, a pooled one, whose index up to
// n/PromoteFrac is recycled, at three times n/PromoteFrac.
func TestPromoteAt(t *testing.T) {
	const n = 1 << 16
	if got := New(n).PromoteAt(); got != n/PromoteFrac/2 {
		t.Fatalf("unpooled PromoteAt = %d, want %d", got, n/PromoteFrac/2)
	}
	w := NewPool(n).Acquire()
	if got := w.PromoteAt(); got != 3*n/PromoteFrac {
		t.Fatalf("pooled PromoteAt = %d, want %d", got, 3*n/PromoteFrac)
	}
	w.Release(1)
}
