// Package workspace implements the per-graph workspace pool behind the
// diffusion hot path: recyclable arenas of the graph-sized scratch state a
// dense-mode diffusion needs (flat sparse.Dense vectors, the vertex-indexed
// share array, and the frontier ID buffer), plus the frontier-sized scratch
// of the sparse rounds.
//
// The paper's implementation gets its speed from reusing graph-sized state
// across iterations instead of reallocating it; a serving layer must extend
// that economy across *queries*, or every request re-pays ~16 bytes/vertex
// per diffusion vector in allocation and GC cost. A Pool is keyed by the
// universe size n of one graph: the service registry owns one Pool per
// loaded graph, and each diffusion borrows a Workspace for its whole run.
//
// # Ownership and borrowing rules
//
// The contract is strict single ownership (see docs/ARCHITECTURE.md for the
// full memory model):
//
//   - Whoever starts a diffusion Acquires a Workspace from the graph's Pool
//     (in this repo: the internal/core kernel entry points) and owns it for
//     the duration of one run. A Workspace is not safe for concurrent use;
//     concurrency comes from many goroutines holding *different* workspaces
//     checked out of the same Pool.
//   - The owner must Release exactly once, after the last read of any
//     borrowed memory (diffusion results are snapshotted into independent
//     sparse.Map values first). Release resets every borrowed piece —
//     O(touched), not O(n) — and returns the Workspace to its Pool.
//   - On panic, the owner must NOT Release: a Workspace abandoned
//     mid-phase may hold a half-claimed Dense entry whose reset would be
//     incomplete, so the kernels deliberately skip Release on unwinding and
//     let the GC reclaim the arena. A cancelled query (context expiry while
//     queueing) never acquires a workspace at all — acquisition happens
//     after the proc-pool gate.
//
// A Pool keeps at most one idle workspace resident (the hot slot); any
// overflow created by concurrent checkouts sits in a sync.Pool behind it,
// where the GC drops it under memory pressure rather than pinning
// graph-sized arrays forever.
package workspace

import (
	"sync"
	"sync/atomic"

	"parcluster/internal/sparse"
)

// Pool recycles Workspaces for one vertex universe [0, n) — one graph, one
// pool. The zero value is not usable; construct with NewPool. All methods
// are safe for concurrent use.
//
// The three arena kinds live in three separate stores so none can starve
// another: result arenas outlive the kernel (they are held through the
// sweep until the answer is copied out) and must not drain the diffusion
// scratch, and
// lane-striped batch scratch, an order of magnitude heavier than a
// Workspace, must neither evict the per-run arenas nor be pinned by them.
type Pool struct {
	n       int
	scratch store[Workspace]      // Acquire
	results store[Result]         // AcquireResult (result.go)
	batches store[BatchWorkspace] // AcquireBatch (batch.go)
}

// store is the two-tier recycling store behind each arena kind: a
// single-slot LIFO "hot" arena under a mutex, with a sync.Pool behind it
// for concurrency overflow. The hot slot makes the single-client steady
// state deterministic (release, acquire, get the same arena back —
// sync.Pool alone gives no such guarantee and the race detector
// deliberately randomizes it) and keeps one warmed-up arena resident per
// graph; everything past the first concurrent checkout lives in the
// sync.Pool, so idle excess is dropped by the GC under memory pressure
// instead of pinning graph-sized arrays forever.
type store[T any] struct {
	mu       sync.Mutex
	hot      *T // nil when checked out
	overflow sync.Pool

	acquires, hits, misses, releases atomic.Int64
	recycled                         atomic.Int64 // bytes served from recycled arenas
}

// get checks an arena out, reusing a released one when available and
// building an empty one with fresh otherwise.
func (s *store[T]) get(fresh func() *T) *T {
	s.acquires.Add(1)
	s.mu.Lock()
	x := s.hot
	s.hot = nil
	s.mu.Unlock()
	if x == nil {
		x, _ = s.overflow.Get().(*T)
	}
	if x != nil {
		s.hits.Add(1)
		return x
	}
	s.misses.Add(1)
	return fresh()
}

// put returns a reset arena to storage: the hot slot if free, the sync.Pool
// otherwise.
func (s *store[T]) put(x *T) {
	s.releases.Add(1)
	s.mu.Lock()
	if s.hot == nil {
		s.hot = x
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.overflow.Put(x)
}

// NewPool returns an empty workspace pool for graphs with n vertices.
func NewPool(n int) *Pool {
	if n < 0 {
		n = 0
	}
	return &Pool{n: n}
}

// Universe returns the vertex-universe size the pool was built for.
func (p *Pool) Universe() int { return p.n }

// Acquire checks a Workspace out of the pool, reusing a released one when
// available and allocating an empty one otherwise. The caller owns the
// result until Release.
func (p *Pool) Acquire() *Workspace {
	w := p.scratch.get(func() *Workspace {
		w := New(p.n)
		w.pool = p
		return w
	})
	w.inUse = true
	return w
}

// PoolStats is a point-in-time snapshot of one pool's counters.
type PoolStats struct {
	// Universe is the vertex-universe size the pool serves.
	Universe int `json:"universe"`
	// Acquires counts Acquire calls (Hits + Misses).
	Acquires int64 `json:"acquires"`
	// Hits counts acquisitions served by recycling a released workspace.
	Hits int64 `json:"hits"`
	// Misses counts acquisitions that had to allocate a fresh workspace
	// (first use, pool drained by concurrency, or GC-cleared).
	Misses int64 `json:"misses"`
	// Releases counts workspaces returned to the pool.
	Releases int64 `json:"releases"`
	// BytesRecycled totals the graph-sized array bytes that runs actually
	// borrowed from recycled arenas instead of allocating — the GC pressure
	// the pool absorbed. Counted per arena at borrow time, so a retained
	// arena a run never touches (e.g. dense scratch during a sparse-mode
	// query) does not inflate the number.
	BytesRecycled int64 `json:"bytes_recycled"`

	// ResultAcquires counts AcquireResult calls (ResultHits + ResultMisses).
	ResultAcquires int64 `json:"result_acquires"`
	// ResultHits counts result-arena acquisitions served by recycling.
	ResultHits int64 `json:"result_hits"`
	// ResultMisses counts result-arena acquisitions that allocated fresh.
	ResultMisses int64 `json:"result_misses"`
	// ResultReleases counts result arenas returned to the pool. A healthy
	// server keeps ResultReleases tracking ResultAcquires: the gap is the
	// number of results being computed (a gap left open at rest means a
	// leak — a path that skipped Release).
	ResultReleases int64 `json:"result_releases"`
	// ResultBytesRecycled totals the result-sized bytes (snapshot map
	// payloads, sweep arrays, member lists) served from recycled arenas
	// instead of the allocator.
	ResultBytesRecycled int64 `json:"result_bytes_recycled"`

	// BatchAcquires counts AcquireBatch calls (BatchHits + BatchMisses).
	BatchAcquires int64 `json:"batch_acquires"`
	// BatchHits counts batch-workspace acquisitions served by recycling.
	BatchHits int64 `json:"batch_hits"`
	// BatchMisses counts batch-workspace acquisitions that allocated fresh —
	// each one pays for ~1.5–2 KB/vertex of lane-striped scratch, so a
	// steady-state batch server should see these stay flat after warm-up.
	BatchMisses int64 `json:"batch_misses"`
	// BatchReleases counts batch workspaces returned to the pool.
	BatchReleases int64 `json:"batch_releases"`
	// BatchBytesRecycled totals the lane-striped bytes (lane banks, share
	// slabs, mask and ID buffers) served from recycled arenas.
	BatchBytesRecycled int64 `json:"batch_bytes_recycled"`
}

// Stats snapshots the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Universe:            p.n,
		Acquires:            p.scratch.acquires.Load(),
		Hits:                p.scratch.hits.Load(),
		Misses:              p.scratch.misses.Load(),
		Releases:            p.scratch.releases.Load(),
		BytesRecycled:       p.scratch.recycled.Load(),
		ResultAcquires:      p.results.acquires.Load(),
		ResultHits:          p.results.hits.Load(),
		ResultMisses:        p.results.misses.Load(),
		ResultReleases:      p.results.releases.Load(),
		ResultBytesRecycled: p.results.recycled.Load(),
		BatchAcquires:       p.batches.acquires.Load(),
		BatchHits:           p.batches.hits.Load(),
		BatchMisses:         p.batches.misses.Load(),
		BatchReleases:       p.batches.releases.Load(),
		BatchBytesRecycled:  p.batches.recycled.Load(),
	}
}

// Workspace is one diffusion's checkout of scratch state: graph-sized — a
// freelist of flat sparse.Dense vectors plus lazily-built share and
// frontier-ID buffers, all over a fixed universe [0, n) — and the
// frontier-sized scratch of the sparse rounds (Local). It is owned by a
// single goroutine between Acquire (or New) and Release and is not safe for
// concurrent use. Every piece is allocated on first demand, so a sparse-mode
// run through a Workspace costs nothing graph-sized.
type Workspace struct {
	n     int
	pool  *Pool // nil for unpooled (New) workspaces; Release then just resets
	inUse bool

	dense     []*sparse.Dense // every vector ever handed out by Dense()
	denseUsed int             // vectors handed out since the last Release

	local Local

	floats []float64 // vertex-indexed share scratch (engine dense rounds); all zero between borrows
	ids    []uint32  // frontier ID buffer (engine filter output)

	sortIDs     []uint32 // β-fraction ranking buffer (frontier-ID copy)
	sortScratch []uint32 // merge scratch paired with sortIDs

	// First-borrow-per-checkout flags for the singleton buffers, so a
	// recycled buffer credits BytesRecycled exactly once per run.
	usedFloats, usedIDs, usedSortIDs, usedSortScratch bool
}

// credit records bytes served from a recycled arena toward the pool's
// BytesRecycled counter (no-op for unpooled workspaces).
func (w *Workspace) credit(bytes int64) {
	if w.pool != nil {
		w.pool.scratch.recycled.Add(bytes)
	}
}

// New returns an unpooled Workspace for a universe of n vertices — the
// allocation behaviour callers get when no Pool is configured. Release on
// an unpooled workspace resets it but returns it nowhere; the GC reclaims
// it when the owner drops it.
func New(n int) *Workspace {
	if n < 0 {
		n = 0
	}
	return &Workspace{n: n, inUse: true}
}

// Universe returns the vertex-universe size the workspace serves.
func (w *Workspace) Universe() int { return w.n }

// Dense borrows the next free flat vector over [0, n), allocating one only
// when every previously-created vector is already handed out this run. The
// vector is clear (every Get reads 0) and stays owned by the workspace: it
// is reset and reclaimed by Release, not by the borrower.
func (w *Workspace) Dense() *sparse.Dense {
	if w.denseUsed < len(w.dense) {
		d := w.dense[w.denseUsed]
		w.denseUsed++
		// vals (8n) + present (4n) + touched (4n) reused without allocating.
		w.credit(16 * int64(d.Universe()))
		return d
	}
	d := sparse.NewDense(w.n)
	w.dense = append(w.dense, d)
	w.denseUsed++
	return d
}

// Local is the frontier-sized scratch of the sparse rounds: the per-source
// shares, the frontier's degree offsets and the next frontier's IDs. The
// borrower grows the slices in place, and what it grew stays with the
// workspace for the next run; contents are unspecified.
type Local struct {
	Shares []float64
	Offs   []uint64
	IDs    []uint32
}

// Local returns the workspace's frontier-sized scratch.
func (w *Workspace) Local() *Local { return &w.local }

// Floats returns the workspace's vertex-indexed float64 scratch array
// (length n), allocating it on first use. It is all zero when handed out and
// the borrower must leave it all zero: the engine's pull round reads every
// slot as a share, so it zeroes the slots of each frontier it is done with
// instead of anyone paying an O(n) clear per checkout.
func (w *Workspace) Floats() []float64 {
	if w.floats == nil {
		w.floats = make([]float64, w.n)
	} else if !w.usedFloats {
		w.credit(8 * int64(len(w.floats)))
	}
	w.usedFloats = true
	return w.floats
}

// IDs returns the workspace's frontier ID buffer (capacity n, length 0),
// allocating it on first use. The engine alternates filter outputs through
// it; see HasIDs for the lazy-allocation policy.
func (w *Workspace) IDs() []uint32 {
	if w.ids == nil {
		w.ids = make([]uint32, 0, w.n)
	} else if !w.usedIDs {
		w.credit(4 * int64(cap(w.ids)))
	}
	w.usedIDs = true
	return w.ids[:0]
}

// SortIDs returns the workspace's sort-input ID buffer (capacity n, length
// 0), allocating it on first use. The β-fraction ranking copies the frontier
// into it before ordering, so the ranking pass never clobbers the frontier's
// own storage; the returned slice stays owned by the workspace and is only
// valid until the next SortIDs call.
func (w *Workspace) SortIDs() []uint32 {
	if w.sortIDs == nil {
		w.sortIDs = make([]uint32, 0, w.n)
	} else if !w.usedSortIDs {
		w.credit(4 * int64(cap(w.sortIDs)))
	}
	w.usedSortIDs = true
	return w.sortIDs[:0]
}

// SortScratch returns the workspace's merge-sort scratch buffer with length
// size (at most n), allocating the backing array on first use. Contents are
// unspecified — parallel.SortScratch clobbers it. Callers should consult
// parallel.SortScratchLen first and skip the borrow when it reports 0.
func (w *Workspace) SortScratch(size int) []uint32 {
	if size > w.n {
		size = w.n
	}
	if w.sortScratch == nil {
		w.sortScratch = make([]uint32, w.n)
	} else if !w.usedSortScratch {
		w.credit(4 * int64(len(w.sortScratch)))
	}
	w.usedSortScratch = true
	return w.sortScratch[:size]
}

// HasIDs reports whether the frontier ID buffer has already been paid for.
// The engine only routes filter outputs through the buffer when a dense
// round made graph-sized state worthwhile — or when a recycled workspace
// already carries the buffer, in which case reuse is free.
func (w *Workspace) HasIDs() bool { return w.ids != nil }

// footprint returns the graph-sized bytes currently retained (test hook).
func (w *Workspace) footprint() int64 {
	b := int64(0)
	for _, d := range w.dense {
		b += 16 * int64(d.Universe())
	}
	b += 8 * int64(len(w.floats))
	b += 4 * int64(cap(w.ids))
	b += 4 * int64(cap(w.sortIDs))
	b += 4 * int64(cap(w.sortScratch))
	return b
}

// Release resets every borrowed piece (O(touched) per Dense vector, using
// procs workers; procs <= 0 uses all cores) and returns the workspace to
// its pool. It must be called exactly once per checkout, only on the
// non-panicking path, and only after the last read of borrowed memory.
func (w *Workspace) Release(procs int) {
	if !w.inUse {
		panic("workspace: Release of a workspace that is not checked out")
	}
	for i := 0; i < w.denseUsed; i++ {
		w.dense[i].Reset(procs, 0)
	}
	w.denseUsed = 0
	w.usedFloats, w.usedIDs = false, false
	w.usedSortIDs, w.usedSortScratch = false, false
	w.inUse = false
	if w.pool != nil {
		w.pool.scratch.put(w)
	}
}
