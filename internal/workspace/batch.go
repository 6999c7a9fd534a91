package workspace

// batch.go implements the BatchWorkspace: the pooled arena of lane-striped
// scratch behind the bit-parallel batched diffusions (internal/core/batch.go).
// A batched run needs state the per-run Workspace does not carry — 64-slot
// sparse.Lanes banks for the residual/mass/delta vectors, a lane-striped
// share slab, per-vertex lane-mask arrays, and union-frontier ID buffers —
// and at ~0.5 KB/vertex per lane bank it is far too heavy to allocate per
// batch. BatchWorkspaces are pooled beside the Workspace and Result tiers
// with the same two-tier hot-slot + sync.Pool storage and the same strict
// single-ownership contract: Acquire, run one batch, Release on the
// non-panicking path only.

import (
	"parcluster/internal/sparse"
)

// BatchWorkspace is one batched diffusion's checkout of lane-striped scratch
// over a fixed universe [0, n): a freelist of sparse.Lanes banks plus
// lazily-built share-slab, mask and ID buffers. It is owned by a single
// goroutine between AcquireBatch (or NewBatch) and Release and is not safe
// for concurrent use; every piece is allocated on first demand.
type BatchWorkspace struct {
	n     int
	pool  *Pool // nil for unpooled (NewBatch) workspaces; Release then just resets
	inUse bool

	lanes     []*sparse.Lanes // every bank ever handed out by Lanes()
	lanesUsed int

	shares     []float64 // lane-striped share slab: 64 slots per vertex
	usedShares bool

	masks     [][]uint64 // n+1-word buffers: lane masks and prefix-sum scratch
	masksUsed int

	idbufs     [][]uint32 // capacity-n buffers: union-frontier ID lists
	idbufsUsed int
}

// NewBatch returns an unpooled BatchWorkspace for a universe of n vertices —
// the allocation behaviour callers get when no Pool is configured. Release
// resets it but returns it nowhere; the GC reclaims it when the owner drops
// it.
func NewBatch(n int) *BatchWorkspace {
	if n < 0 {
		n = 0
	}
	return &BatchWorkspace{n: n, inUse: true}
}

// Universe returns the vertex-universe size the workspace serves.
func (b *BatchWorkspace) Universe() int { return b.n }

// credit records bytes served from a recycled arena toward the pool's
// batch-tier counter (no-op for unpooled workspaces).
func (b *BatchWorkspace) credit(bytes int64) {
	if b.pool != nil {
		b.pool.batches.recycled.Add(bytes)
	}
}

// Lanes borrows the next free lane bank over [0, n), allocating one only
// when every previously-created bank is already handed out this checkout.
// The bank is clear (every Get reads 0, every Mask reads 0) and stays owned
// by the workspace: it is reset and reclaimed by Release, not by the
// borrower.
func (b *BatchWorkspace) Lanes() *sparse.Lanes {
	if b.lanesUsed < len(b.lanes) {
		l := b.lanes[b.lanesUsed]
		b.lanesUsed++
		// vals (8*64n) + mask (8n) + touched (4n) reused without allocating.
		b.credit((8*sparse.LaneStride + 12) * int64(l.Universe()))
		return l
	}
	l := sparse.NewLanes(b.n)
	b.lanes = append(b.lanes, l)
	b.lanesUsed++
	return l
}

// ShareLanes returns the workspace's lane-striped share slab (64 float64
// slots per vertex), allocating it on first use. Contents are unspecified;
// callers must write a slot before reading it — the batched kernels write
// shares only for active (vertex, lane) pairs and read back exactly those.
func (b *BatchWorkspace) ShareLanes() []float64 {
	if b.shares == nil {
		b.shares = make([]float64, b.n*sparse.LaneStride)
	} else if !b.usedShares {
		b.credit(8 * int64(len(b.shares)))
	}
	b.usedShares = true
	return b.shares
}

// Uint64s borrows the next free zeroed uint64 buffer of length n+1 — sized
// so one buffer type serves both per-vertex lane masks (n) and edge-balance
// prefix sums (n+1). Unlike the Lanes banks, these buffers come back dirty
// from the previous checkout, so each handout pays one O(n) clear; that is
// the price of letting kernels abandon them mid-phase on cancellation.
func (b *BatchWorkspace) Uint64s() []uint64 {
	var buf []uint64
	if b.masksUsed < len(b.masks) {
		buf = b.masks[b.masksUsed]
		b.credit(8 * int64(len(buf)))
		clear(buf)
	} else {
		buf = make([]uint64, b.n+1)
		b.masks = append(b.masks, buf)
	}
	b.masksUsed++
	return buf
}

// IDs borrows the next free uint32 buffer (capacity n, length 0) for
// union-frontier ID lists, allocating it on first use.
func (b *BatchWorkspace) IDs() []uint32 {
	if b.idbufsUsed < len(b.idbufs) {
		buf := b.idbufs[b.idbufsUsed]
		b.idbufsUsed++
		b.credit(4 * int64(cap(buf)))
		return buf[:0]
	}
	buf := make([]uint32, 0, b.n)
	b.idbufs = append(b.idbufs, buf)
	b.idbufsUsed++
	return buf
}

// footprint returns the lane-striped bytes currently retained (test hook).
func (b *BatchWorkspace) footprint() int64 {
	bytes := int64(0)
	for _, l := range b.lanes {
		bytes += (8*sparse.LaneStride + 12) * int64(l.Universe())
	}
	bytes += 8 * int64(len(b.shares))
	for _, m := range b.masks {
		bytes += 8 * int64(len(m))
	}
	for _, ids := range b.idbufs {
		bytes += 4 * int64(cap(ids))
	}
	return bytes
}

// Release resets every borrowed lane bank (O(touched), using procs workers;
// procs <= 0 uses all cores) and returns the workspace to its pool. It must
// be called exactly once per checkout, only on the non-panicking path, and
// only after the last read of borrowed memory.
func (b *BatchWorkspace) Release(procs int) {
	if !b.inUse {
		panic("workspace: Release of a batch workspace that is not checked out")
	}
	for i := 0; i < b.lanesUsed; i++ {
		b.lanes[i].Reset(procs)
	}
	b.lanesUsed = 0
	b.masksUsed = 0
	b.idbufsUsed = 0
	b.usedShares = false
	b.inUse = false
	if b.pool != nil {
		b.pool.batches.put(b)
	}
}

// AcquireBatch checks a BatchWorkspace out of the pool, reusing a released
// one when available and allocating an empty one otherwise. The caller owns
// the result until Release.
func (p *Pool) AcquireBatch() *BatchWorkspace {
	b := p.batches.get(func() *BatchWorkspace {
		b := NewBatch(p.n)
		b.pool = p
		return b
	})
	b.inUse = true
	return b
}
