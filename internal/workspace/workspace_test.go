package workspace

import (
	"sync"
	"testing"

	"parcluster/internal/sparse"
)

// TestWorkspaceReuse pins the leak-free recycling contract: a released
// workspace is handed back on the next Acquire (pointer identity), its
// tables come back in the order the last run borrowed them (pointer
// identity again, so their arrays really are reused) and empty, and the
// graph-sized buffers keep their storage.
func TestWorkspaceReuse(t *testing.T) {
	const n = 1 << 12
	p := NewPool(n)
	w := p.Acquire()
	if w.Universe() != n {
		t.Fatalf("Universe() = %d, want %d", w.Universe(), n)
	}

	// Dirty every arena the workspace can hand out.
	t1 := w.Table(4)
	t2 := w.Table(16)
	if t1 == t2 {
		t.Fatal("Table() handed out the same table twice in one run")
	}
	t1.Add(7, 1.5)
	t1.Add(9, -2.5)
	t2.Set(123, 4.0)
	f := w.Floats() // handed back zeroed by contract, so not dirtied here
	ids := append(w.IDs(), 1, 2, 3)
	_ = ids
	w.Release(2)

	w2 := p.Acquire()
	if w2 != w {
		t.Fatalf("Acquire after Release returned a different workspace: %p vs %p", w2, w)
	}
	r1 := w2.Table(4)
	if r1 != t1 {
		t.Fatalf("first Table() after reuse = %p, want the recycled %p", r1, t1)
	}
	if r1.Len() != 0 || r1.Get(7) != 0 || r1.Get(9) != 0 || r1.Has(7) {
		t.Fatalf("recycled table not cleared: len=%d v7=%v v9=%v", r1.Len(), r1.Get(7), r1.Get(9))
	}
	if r2 := w2.Table(16); r2 != t2 || r2.Len() != 0 || r2.Get(123) != 0 {
		t.Fatalf("second recycled table not cleared: %p len=%d", r2, r2.Len())
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
	// The second checkout borrowed both recycled tables + floats (8n) + ids
	// (4n); crediting happens per borrow, so exactly these arenas count.
	want := t1.Bytes() + t2.Bytes() + 8*n + 4*n
	if st.BytesRecycled != want {
		t.Fatalf("BytesRecycled = %d, want %d", st.BytesRecycled, want)
	}
}

// TestTableGrowth checks a workspace keeps up with a run that needs more:
// a run borrowing more tables than any before gets a fresh one, a borrow
// larger than a kept table grows that table, and a table a run grew comes
// back at its grown capacity.
func TestTableGrowth(t *testing.T) {
	p := NewPool(1 << 12)
	w := p.Acquire()
	a, b := w.Table(4), w.Table(4)
	b.Reserve(100) // grown mid-run, as the engine's rounds do
	w.Release(1)

	w = p.Acquire()
	if got := w.Table(200); got != a || got.Cap() < 200 || got.Len() != 0 {
		t.Fatalf("kept table not grown in place: %p (want %p) cap=%d len=%d", got, a, got.Cap(), got.Len())
	}
	if got := w.Table(4); got != b || got.Cap() < 100 {
		t.Fatalf("grown table came back as %p cap=%d, want %p at cap >= 100", got, got.Cap(), b)
	}
	c := w.Table(4) // third table: the list must grow, not corrupt
	if c == a || c == b {
		t.Fatal("third Table() aliased a table already handed out")
	}
	c.Add(1, 1)
	w.Release(1)

	w = p.Acquire()
	_, _ = w.Table(4), w.Table(4)
	if third := w.Table(4); third != c || third.Len() != 0 || third.Get(1) != 0 {
		t.Fatal("grown table list not kept, or its third table not cleared on release")
	}
	w.Release(1)
}

// TestTableCap checks Release keeps no table larger than the engine's
// promotion bound, n/PromoteFrac entries (keepFloor on a small graph), and
// keeps one of exactly that size: only a pinned-sparse run grows a table
// past it.
func TestTableCap(t *testing.T) {
	for n, want := range map[int]int{1 << 16: (1 << 16) / PromoteFrac, 1 << 10: keepFloor} {
		p := NewPool(n)
		w := p.Acquire()
		limit := w.keepCap()
		if limit != want {
			t.Fatalf("n=%d: keepCap = %d, want %d", n, limit, want)
		}
		atCap, over := w.Table(limit), w.Table(4)
		over.Reserve(limit + 1)
		if atCap.Cap() != limit || over.Cap() <= limit {
			t.Fatalf("n=%d: setup caps %d and %d against limit %d", n, atCap.Cap(), over.Cap(), limit)
		}
		w.Release(1)
		if w.footprint() != atCap.Bytes() {
			t.Fatalf("n=%d: released footprint = %d, want the capped table's %d", n, w.footprint(), atCap.Bytes())
		}

		w = p.Acquire()
		if got := w.Table(4); got != atCap {
			t.Fatalf("n=%d: a table at the cap was not kept", n)
		}
		if got := w.Table(4); got == over || got.Cap() > limit {
			t.Fatalf("n=%d: an oversize table (cap %d > %d) was kept", n, got.Cap(), limit)
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
				tb := w.Table(4)
				if tb.Len() != 0 {
					t.Errorf("checked-out table starts dirty: len=%d", tb.Len())
					return
				}
				k := uint32((gi*iters + i) % w.Universe())
				tb.Add(k, float64(i))
				if tb.Get(k) != float64(i) {
					t.Errorf("table readback mismatch")
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

// TestPromoteBorrowedTable checks promotion copies a borrowed table's
// entries faithfully into a flat vector and leaves the table to the
// workspace, which clears it at Release.
func TestPromoteBorrowedTable(t *testing.T) {
	p := NewPool(256)
	w := p.Acquire()
	cm := w.Table(8)
	cm.Add(3, 1.25)
	cm.Add(200, -4)
	d := sparse.PromoteToDense(256, cm)
	if d.Len() != 2 || d.Get(3) != 1.25 || d.Get(200) != -4 {
		t.Fatalf("promotion lost entries: len=%d", d.Len())
	}
	w.Release(1)
	if cm.Len() != 0 || cm.Get(3) != 0 || d.Get(3) != 1.25 {
		t.Fatal("Release must clear the table and leave the promoted vector alone")
	}
}
