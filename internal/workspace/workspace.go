// Package workspace implements the per-graph workspace pool behind the
// diffusion hot path: recyclable arenas of a run's scratch state — the
// run's vertex → slot index and the columns beside it that hold its
// vectors, the frontier-sized scratch of the sparse rounds, and the
// graph-sized buffers of the dense rounds (the vertex-indexed share array,
// the frontier ID buffer and the β-fraction ranking buffers).
//
// The paper's implementation gets its speed from reusing its sparse sets
// across iterations instead of reallocating them; a serving layer must
// extend that economy across *queries*, or every request re-pays the
// allocation and clearing of its tables. A Pool is keyed by the universe
// size n of one graph: the service registry owns one Pool per loaded graph,
// and each diffusion borrows a Workspace for its whole run.
//
// A Workspace keeps an index only up to the engine's promotion bound
// (n/PromoteFrac slots) and never keeps a flat sparse.Dense vector, so what
// it holds is bounded by the locality of its runs, not by n.
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
//     borrowed memory. Release clears the borrowed index through its slots
//     — O(entries), not O(capacity) — and returns the Workspace to its
//     Pool.
//   - On panic, the owner must NOT Release: a Workspace abandoned
//     mid-phase may hold a half-claimed index entry whose reset would be
//     incomplete, so the kernels deliberately skip Release on unwinding and
//     let the GC reclaim the arena. A cancelled query (context expiry while
//     queueing) never acquires a workspace at all — acquisition happens
//     after the proc-pool gate.
//
// Nothing a run returns comes from a Pool. A kernel snapshots its answer
// into a fresh sparse.Vector (two slices, IDs and values) and a sweep
// allocates its order and prefix arrays: both are support-sized,
// pointer-free and owned by the caller from the moment they are computed,
// so they outlive the Release that recycles the index behind them.
//
// A Pool keeps at most one idle workspace resident (the hot slot); any
// overflow created by concurrent checkouts sits in a sync.Pool behind it,
// where the GC drops it under memory pressure rather than pinning it
// forever.
package workspace

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"parcluster/internal/sparse"
)

// Pool recycles Workspaces for one vertex universe [0, n) — one graph, one
// pool. The zero value is not usable; construct with NewPool. All methods
// are safe for concurrent use.
//
// The two arena kinds live in two separate stores so neither can starve
// the other: lane-striped batch scratch, an order of magnitude heavier than
// a Workspace, must neither evict the per-run arenas nor be pinned by them.
type Pool struct {
	n       int
	scratch store[Workspace]      // Acquire
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
	// BytesRecycled totals the bytes that runs actually borrowed from
	// recycled arenas instead of allocating — a kept index (table and
	// columns) and the dense rounds' graph-sized buffers: the GC
	// pressure the pool absorbed. Counted per arena at borrow time, once per
	// checkout, so a retained arena a run never touches (e.g. dense scratch
	// during a sparse-mode query) does not inflate the number.
	BytesRecycled int64 `json:"bytes_recycled"`

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
		Universe:           p.n,
		Acquires:           p.scratch.acquires.Load(),
		Hits:               p.scratch.hits.Load(),
		Misses:             p.scratch.misses.Load(),
		Releases:           p.scratch.releases.Load(),
		BytesRecycled:      p.scratch.recycled.Load(),
		BatchAcquires:      p.batches.acquires.Load(),
		BatchHits:          p.batches.hits.Load(),
		BatchMisses:        p.batches.misses.Load(),
		BatchReleases:      p.batches.releases.Load(),
		BatchBytesRecycled: p.batches.recycled.Load(),
	}
}

// Workspace is one diffusion's checkout of scratch state over a fixed
// universe [0, n): the index its vectors live beside (Index), the
// frontier-sized scratch of the sparse rounds (Local), and lazily-built
// graph-sized share, frontier-ID and ranking buffers for dense rounds. It is
// owned by a single goroutine between Acquire (or New) and Release and is
// not safe for concurrent use. Every piece is allocated on first demand, so
// a sparse-mode run through a Workspace costs nothing graph-sized.
type Workspace struct {
	n     int
	pool  *Pool // nil for unpooled (New) workspaces; Release then keeps nothing
	inUse bool

	index *sparse.Index // the runs' vertex → slot index; Release keeps it under the cap

	local Local

	floats []float64 // vertex-indexed share scratch (engine dense rounds); all zero between borrows
	ids    []uint32  // frontier ID buffer (engine filter output)

	sortIDs     []uint32 // β-fraction ranking buffer (frontier-ID copy)
	sortScratch []uint32 // merge scratch paired with sortIDs

	// First-borrow-per-checkout flags for the singleton buffers, so a
	// recycled buffer credits BytesRecycled exactly once per run.
	usedIndex, usedFloats, usedIDs, usedSortIDs, usedSortScratch bool
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
// an unpooled workspace clears nothing and returns it nowhere; the GC
// reclaims it when the owner drops it.
func New(n int) *Workspace {
	if n < 0 {
		n = 0
	}
	return &Workspace{n: n, inUse: true}
}

// Universe returns the vertex-universe size the workspace serves.
func (w *Workspace) Universe() int { return w.n }

// PromoteFrac is the promotion threshold denominator of the diffusion
// engine: n/PromoteFrac is the largest index Release keeps, and the
// points at which an auto-mode run switches from its index to flat Dense
// arrays are set from it (PromoteAt).
const PromoteFrac = 8

// keepFloor is the smallest index, in slots, that Release keeps whatever n:
// it holds any round of one 2048-edge traversal chunk, and it costs less to
// keep than to reallocate per query. It binds only on graphs of fewer than
// PromoteFrac*keepFloor = 32,768 vertices.
const keepFloor = 1 << 12

// keepCap returns the Cap of the largest index Release keeps: the bound
// rounded up to a power of two, as an index reserved for it would be.
func (w *Workspace) keepCap() int {
	return 1 << bits.Len(uint(max(w.n/PromoteFrac, keepFloor)-1))
}

// PromoteAt returns the slot count past which a run on this workspace
// leaves its index for flat sparse.Dense vectors. A pooled run's index is
// recycled up to n/PromoteFrac slots and costs only what grows past that,
// while flat vectors are allocated per run, so it stays indexed until the
// index would outweigh them: three times n/PromoteFrac, where 2·(40 + 8k)
// bytes per slot at worst meet 16k per vertex for k = 3 vectors. An
// unpooled run pays for every slot it grows and frees its index at
// promotion, so it goes flat early, at half of n/PromoteFrac. Both points
// are measured (DESIGN.md §4): promoting pooled local queries at
// n/PromoteFrac raised serve-local's rss_peak_mb 13–23%, and promoting
// the unpooled whole-graph runs of global-diffusion that late raised its
// rss_peak_mb by a quarter.
func (w *Workspace) PromoteAt() int {
	if w.pool == nil {
		return w.n / (2 * PromoteFrac)
	}
	return 3 * w.n / PromoteFrac
}

// Index borrows the run's vertex → slot index, empty, handing out the one
// an earlier run left in the workspace when there is one. It stays owned by
// the workspace: Release clears it and keeps it for the next run, unless it
// grew too large (see Release).
func (w *Workspace) Index() *sparse.Index {
	if w.index == nil {
		w.index = sparse.NewIndex(keepFloor)
	} else if !w.usedIndex {
		w.credit(w.index.Bytes())
	}
	w.usedIndex = true
	return w.index
}

// Local is the frontier-sized scratch of the sparse rounds: the per-source
// shares, the frontier's degree offsets, the next frontier's keys, the
// frontier's vertices and a neighbour decode buffer. The
// borrower grows the slices in place, and what it grew stays with the
// workspace for the next run; contents are unspecified.
type Local struct {
	Shares []float64
	Offs   []uint64
	IDs    []uint32
	Verts  []uint32 // the frontier's vertices, for a round several workers share
	Adj    []uint32 // neighbour decode scratch of a round one goroutine runs
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

// footprint returns the bytes currently retained (test hook).
func (w *Workspace) footprint() int64 {
	b := int64(0)
	if w.index != nil {
		b += w.index.Bytes()
	}
	b += 8 * int64(len(w.floats))
	b += 4 * int64(cap(w.ids))
	b += 4 * int64(cap(w.sortIDs))
	b += 4 * int64(cap(w.sortScratch))
	return b
}

// Release returns the workspace to its pool. It clears the index the run
// borrowed (O(entries)) and drops it instead if it grew past n/PromoteFrac
// slots (keepFloor on a small graph). An unpooled workspace is only marked
// returned: its owner drops it. Release must be called exactly once per
// checkout, only on the non-panicking path, and only after the last read of
// borrowed memory. procs is unused: the clear is a pass over at most
// n/PromoteFrac slots.
func (w *Workspace) Release(procs int) {
	if !w.inUse {
		panic("workspace: Release of a workspace that is not checked out")
	}
	w.inUse = false
	if w.pool == nil {
		return
	}
	if w.index != nil && w.index.Cap() > w.keepCap() {
		w.index = nil
	} else if w.index != nil {
		w.index.Reset()
	}
	w.usedIndex, w.usedFloats, w.usedIDs = false, false, false
	w.usedSortIDs, w.usedSortScratch = false, false
	w.pool.scratch.put(w)
}

// DropIndex gives up the borrowed index early, when its run has stopped
// using it (the engine's promotion to flat vectors) and Release would not
// keep it: the workspace is unpooled, or the index grew past the cap.
// Holding it through the run's dense rounds only raises the live heap the
// collector paces against.
func (w *Workspace) DropIndex() {
	if w.pool == nil || w.index != nil && w.index.Cap() > w.keepCap() {
		w.index = nil
	}
}
