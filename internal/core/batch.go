package core

// batch.go implements the bit-parallel batched diffusion engine: up to 64
// same-parameter diffusions ("lanes") over one graph advanced by a single
// shared edge traversal per round, in the spirit of the Cluster-BFS trick.
// Each vertex carries a uint64 active-lanes mask; the union frontier is the
// set of vertices with a nonzero mask, and one pass over its incident edges
// fans every push out to the source's set bits. Residual/mass state is
// lane-striped (sparse.Lanes: 64 float64 slots per vertex, SoA), so each
// lane keeps its own mass and the per-lane arithmetic is exactly the
// unbatched kernel's.
//
// Bit-identity. The batched round performs, per lane, the same floating-
// point additions in the same order as an unbatched FrontierDense round:
// the vertex phase writes each (vertex, lane) slot exactly once, and both
// edge traversals (ligra.EdgeApplyLanesDense/-Sparse over an ID-sorted union
// frontier) visit sources in increasing vertex-ID order within a chunk,
// which is the order ligra.EdgePull sums a destination's sources in. A
// lane's additions are a subsequence of the union traversal's in the same
// relative order, so per-lane results are bit-identical to a FrontierDense
// unbatched run whenever the batch runs one worker or the round's edge work
// fits one traversal chunk; the lane traversals still push with atomic adds,
// so several workers sharing a destination add in schedule order (identical
// clusters/Stats always — the batch property suite pins both down).
//
// Per-lane termination: a lane drops out of the masks naturally when its
// next frontier filters empty (no vertex keeps its bit), or explicitly when
// its cancel channel fires; its result is snapshotted into its own unit's
// Result arena at that moment and siblings are unaffected. Per-lane Stats
// and Observer events are derived from the lane's share of the union
// frontier each round, so telemetry matches the unbatched runs too.

import (
	"math/bits"

	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// MaxBatchLanes is the lane capacity of one batched run — the width of the
// per-vertex active-lanes mask.
const MaxBatchLanes = sparse.LaneStride

// BatchUnit is one lane of a batched diffusion: a seed set plus the
// per-unit environment the corresponding unbatched run would get.
type BatchUnit struct {
	// Seeds is the unit's seed set (normalized like every kernel's: an empty
	// or out-of-range set panics, duplicates are dropped).
	Seeds []uint32
	// Result, when non-nil, is the arena this lane's vector is snapshotted
	// into at termination; the caller owns it (see RunConfig.Result).
	Result *workspace.Result
	// Cancel, when non-nil, retires this lane at the next round boundary
	// once it fires: the lane's partial vector is snapshotted and the
	// remaining lanes run on unaffected.
	Cancel <-chan struct{}
	// Observer, when non-nil, receives this lane's per-round events, with
	// the same semantics as RunConfig.Observer (the dense flag reports the
	// union traversal's decision, which is shared by all lanes).
	Observer Observer
}

// BatchConfig bundles the execution environment of one batched run.
type BatchConfig struct {
	// Procs is the worker count (<= 0 = all cores).
	Procs int
	// Frontier selects the union traversal strategy: auto applies Ligra's
	// direction heuristic to the union frontier, the other modes pin it.
	Frontier FrontierMode
	// Workspace, when non-nil, is the pool the run borrows its lane-striped
	// scratch from (Pool.AcquireBatch); a wrong-universe pool is ignored.
	Workspace *workspace.Pool
	// Cancel, when non-nil, stops every remaining lane at the next round
	// boundary once it fires; each lane's partial vector is returned.
	Cancel <-chan struct{}
}

// prNibbleBatchResidualSink, when non-nil, receives a snapshot of each
// lane's final residual vector as the lane terminates. Test-only, like
// prNibbleResidualSink: the batch property suite checks per-lane mass
// conservation through it.
var prNibbleBatchResidualSink func(lane int, r *sparse.Map)

// laneBatch carries the shared state of one batched run: the per-vertex
// active-lanes mask, the ID-sorted union frontier, and per-lane frontier
// size/volume tallies maintained by the filter pass.
type laneBatch struct {
	g     graph.Graph
	procs int
	mode  FrontierMode
	units []BatchUnit

	activeMask []uint64  // per-vertex mask of lanes whose frontier holds it
	active     []uint32  // union frontier, sorted by vertex ID
	spare      []uint32  // ping-pong buffer the next union frontier is built in
	degs, offs []uint64  // sparse-traversal prefix-sum scratch
	shares     []float64 // lane-striped per-source shares (64 slots per vertex)

	running  uint64 // lanes not yet terminated
	sizes    [MaxBatchLanes]int64
	vols     [MaxBatchLanes]int64
	unionVol uint64

	stats []Stats
	vecs  []*sparse.Map
}

func newLaneBatch(g graph.Graph, procs int, mode FrontierMode, units []BatchUnit, bw *workspace.BatchWorkspace) *laneBatch {
	return &laneBatch{
		g:          g,
		procs:      procs,
		mode:       mode,
		units:      units,
		activeMask: bw.Uint64s()[:g.NumVertices()],
		active:     bw.IDs(),
		spare:      bw.IDs(),
		degs:       bw.Uint64s(),
		offs:       bw.Uint64s(),
		shares:     bw.ShareLanes(),
		running:    allLanes(len(units)),
		stats:      make([]Stats, len(units)),
		vecs:       make([]*sparse.Map, len(units)),
	}
}

// allLanes returns the mask with the low l bits set.
func allLanes(l int) uint64 {
	if l >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << l) - 1
}

// acquireBatchWorkspace checks a batch workspace for a universe of n
// vertices out of pool, falling back to a fresh unpooled one when no (or a
// wrong-universe) pool is configured. Same ownership rules as
// acquireWorkspace: Release on the non-panicking path only.
func acquireBatchWorkspace(pool *workspace.Pool, n int) *workspace.BatchWorkspace {
	if pool == nil || pool.Universe() != n {
		return workspace.NewBatch(n)
	}
	return pool.AcquireBatch()
}

// useDense resolves the run's mode against the union frontier.
func (b *laneBatch) useDense() bool {
	switch b.mode {
	case FrontierSparse:
		return false
	case FrontierDense:
		return true
	default:
		return ligra.OverDenseThreshold(b.g, len(b.active), b.unionVol)
	}
}

// roundStats charges every running lane its share of the round — the lane's
// own frontier size and volume, exactly what its unbatched run would count —
// and emits the per-lane Observer events.
func (b *laneBatch) roundStats(dense bool) {
	for m := b.running; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		st := &b.stats[l]
		st.Pushes += b.sizes[l]
		st.EdgesTouched += b.vols[l]
		st.Iterations++
		if obs := b.units[l].Observer; obs != nil {
			obs.Round(st.Iterations-1, int(b.sizes[l]), b.sizes[l], b.vols[l], dense)
		}
	}
}

// rebuild recomputes the per-vertex active mask and the union frontier from
// a candidate vertex list: keepOf returns the lanes keeping v in their next
// frontier, and is also the hook where kernels fold per-vertex merge work
// into the same pass. cand must contain every currently-active vertex (the
// kernels' self-updates guarantee the touched set does) and no duplicates.
// The new union list is built ID-sorted into the spare buffer, and per-lane
// sizes/volumes plus the union volume are retallied.
func (b *laneBatch) rebuild(cand []uint32, keepOf func(v uint32) uint64) {
	const grain = 512
	nc := len(cand)
	chunks := (nc + grain - 1) / grain
	type acc struct {
		kept     []uint32
		sizes    [MaxBatchLanes]int64
		vols     [MaxBatchLanes]int64
		unionVol uint64
	}
	accs := make([]acc, chunks)
	parallel.ForRange(b.procs, nc, grain, func(lo, hi int) {
		a := &accs[lo/grain]
		for i := lo; i < hi; i++ {
			v := cand[i]
			keep := keepOf(v)
			b.activeMask[v] = keep
			if keep == 0 {
				continue
			}
			a.kept = append(a.kept, v)
			d := int64(b.g.Degree(v))
			a.unionVol += uint64(d)
			for mm := keep; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				a.sizes[l]++
				a.vols[l] += d
			}
		}
	})
	next := b.spare[:0]
	b.sizes = [MaxBatchLanes]int64{}
	b.vols = [MaxBatchLanes]int64{}
	b.unionVol = 0
	for i := range accs {
		a := &accs[i]
		next = append(next, a.kept...)
		b.unionVol += a.unionVol
		for l := range b.sizes {
			b.sizes[l] += a.sizes[l]
			b.vols[l] += a.vols[l]
		}
	}
	parallel.RadixSortUint32(b.procs, next, uint32(b.g.NumVertices()))
	b.spare = b.active
	b.active = next
}

// retireCancelled snapshots and retires every lane whose own cancel channel
// (or the group channel, via group) has fired, clearing its bits from the
// active mask and compacting the union frontier. It returns true if the
// whole batch is done. finish snapshots one lane (and feeds any test sink).
func (b *laneBatch) retireCancelled(group <-chan struct{}, finish func(l int)) bool {
	if cancelled(group) {
		for m := b.running; m != 0; m &= m - 1 {
			finish(bits.TrailingZeros64(m))
		}
		return true
	}
	cleared := false
	for m := b.running; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		if cancelled(b.units[l].Cancel) {
			finish(l)
			bit := uint64(1) << l
			for _, v := range b.active {
				b.activeMask[v] &^= bit
			}
			b.sizes[l], b.vols[l] = 0, 0
			cleared = true
		}
	}
	if cleared {
		// Compact the union frontier: drop vertices no surviving lane holds.
		next := b.spare[:0]
		var vol uint64
		for _, v := range b.active {
			if b.activeMask[v] != 0 {
				next = append(next, v)
				vol += uint64(b.g.Degree(v))
			}
		}
		b.spare, b.active, b.unionVol = b.active, next, vol
	}
	return b.running == 0
}

// snapshot copies lane l's column of bank into the unit's Result arena (or
// a fresh map) — the batched counterpart of vecFromTable, dropping
// explicit zeros the same way — and retires the lane.
func (b *laneBatch) snapshot(l int, bank *sparse.Lanes) {
	b.vecs[l] = vecFromLane(bank, l, b.units[l].Result)
	b.running &^= uint64(1) << l
}

// vecFromLane snapshots one lane of a Lanes bank into a sparse.Map drawn
// from res (nil res allocates fresh).
func vecFromLane(bank *sparse.Lanes, lane int, res *workspace.Result) *sparse.Map {
	bit := uint64(1) << lane
	touched := bank.Touched()
	count := 0
	for _, v := range touched {
		if bank.Mask(v)&bit != 0 {
			count++
		}
	}
	out := res.Map(count)
	for _, v := range touched {
		if bank.Mask(v)&bit == 0 {
			continue
		}
		if x := bank.Get(v, lane); x != 0 {
			out.Set(v, x)
		}
	}
	return out
}

// PRNibbleBatch runs up to 64 PR-Nibble diffusions with shared parameters
// as one bit-parallel batch: every round traverses the union frontier once
// and advances all lanes. Per-lane results and Stats match the unbatched
// PRNibbleRun (bit-identical to FrontierDense; see the file comment). The
// β-fraction variant is not batchable — callers wanting beta < 1 must fan
// out. Panics if len(units) > MaxBatchLanes.
func PRNibbleBatch(g graph.Graph, units []BatchUnit, alpha, eps float64, rule PushRule, cfg BatchConfig) ([]*sparse.Map, []Stats) {
	if len(units) == 0 {
		return nil, nil
	}
	if len(units) > MaxBatchLanes {
		panic("core: PRNibbleBatch called with more than 64 units")
	}
	procs := parallel.ResolveProcs(cfg.Procs)
	n := g.NumVertices()
	bw := acquireBatchWorkspace(cfg.Workspace, n)
	b := newLaneBatch(g, procs, cfg.Frontier, units, bw)
	pGain, edgeShare, selfKeep := rule.coefficients(alpha)

	r := bw.Lanes()
	p := bw.Lanes()
	delta := bw.Lanes()
	for l, u := range units {
		seeds := normalizeSeeds(g, u.Seeds)
		w := 1 / float64(len(seeds))
		for _, s := range seeds {
			r.Set(s, l, w)
			r.Touch(s, uint64(1)<<l)
		}
	}
	// finish retires one lane: residual sink (test-only), then snapshot p.
	finish := func(l int) {
		if prNibbleBatchResidualSink != nil {
			prNibbleBatchResidualSink(l, vecFromLane(r, l, nil))
		}
		b.snapshot(l, p)
	}
	// Initial frontier: the seeds above the push threshold, per lane.
	b.rebuild(r.Touched(), func(v uint32) uint64 {
		d := float64(g.Degree(v))
		var keep uint64
		for mm := r.Mask(v); mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			if d > 0 && r.Get(v, l) >= eps*d {
				keep |= uint64(1) << l
			}
		}
		return keep
	})
	for m := b.running; m != 0; m &= m - 1 {
		if l := bits.TrailingZeros64(m); b.sizes[l] == 0 {
			finish(l) // all seeds sub-threshold: empty result, zero rounds
		}
	}

	// With one worker every phase is single-writer, so the CAS machinery is
	// pure overhead: route touches and pushes through the serial fast paths.
	// The arithmetic and its order are identical either way.
	serial := procs == 1
	touchP, touchDelta, touchR := p.Touch, delta.Touch, r.Touch
	push := func(src, dst uint32, lanes uint64) {
		base := int(src) << 6
		for mm := lanes; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			delta.AtomicAdd(dst, l, b.shares[base+l])
		}
		delta.Touch(dst, lanes)
	}
	if serial {
		touchP, touchDelta, touchR = p.TouchSerial, delta.TouchSerial, r.TouchSerial
		push = func(src, dst uint32, lanes uint64) {
			base := int(src) << 6
			delta.AddMasked(dst, b.shares[base:base+MaxBatchLanes], lanes)
			delta.TouchSerial(dst, lanes)
		}
	}
	for b.running != 0 {
		if b.retireCancelled(cfg.Cancel, finish) {
			break
		}
		dense := b.useDense()
		b.roundStats(dense)
		delta.Reset(procs)
		active := b.active
		parallel.For(procs, len(active), 512, func(i int) {
			v := active[i]
			m := b.activeMask[v]
			d := float64(g.Degree(v))
			base := int(v) << 6
			touchP(v, m)
			touchDelta(v, m)
			for mm := m; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				rv := r.Get(v, l)
				p.Add(v, l, pGain*rv)
				// Self-update as a commutative delta, as in PRNibbleRun:
				// r[v] becomes selfKeep*rv, i.e. changes by (selfKeep-1)*rv.
				delta.Add(v, l, (selfKeep-1)*rv)
				b.shares[base+l] = edgeShare * rv / d
			}
		})
		if dense {
			ligra.EdgeApplyLanesDense(procs, g, b.activeMask, push)
		} else {
			ligra.EdgeApplyLanesSparse(procs, g, active, b.activeMask, b.degs, b.offs, push)
		}
		// Merge r += delta and filter the next frontier in one pass over the
		// touched vertices (which cover every active vertex: the self-update
		// touched it).
		b.rebuild(delta.Touched(), func(v uint32) uint64 {
			m := delta.Mask(v)
			touchR(v, m)
			d := float64(g.Degree(v))
			var keep uint64
			for mm := m; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				rv := r.Get(v, l) + delta.Get(v, l)
				r.Set(v, l, rv)
				if d > 0 && rv >= eps*d {
					keep |= uint64(1) << l
				}
			}
			return keep & b.running
		})
		for m := b.running; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros64(m); b.sizes[l] == 0 {
				finish(l) // frontier emptied: the lane's diffusion converged
			}
		}
	}
	bw.Release(procs)
	return b.vecs, b.stats
}

// NibbleBatch runs up to 64 Nibble truncated walks with shared parameters
// as one bit-parallel batch; per-lane results and Stats match the unbatched
// NibbleRun, including the Figure 3 early-stop semantics (a lane whose
// filter empties at step t returns its p_{t-1}). Panics if
// len(units) > MaxBatchLanes.
func NibbleBatch(g graph.Graph, units []BatchUnit, eps float64, T int, cfg BatchConfig) ([]*sparse.Map, []Stats) {
	if len(units) == 0 {
		return nil, nil
	}
	if len(units) > MaxBatchLanes {
		panic("core: NibbleBatch called with more than 64 units")
	}
	procs := parallel.ResolveProcs(cfg.Procs)
	n := g.NumVertices()
	bw := acquireBatchWorkspace(cfg.Workspace, n)
	b := newLaneBatch(g, procs, cfg.Frontier, units, bw)

	p := bw.Lanes()
	next := bw.Lanes()
	for l, u := range units {
		seeds := normalizeSeeds(g, u.Seeds)
		w := 1 / float64(len(seeds))
		for _, s := range seeds {
			p.Set(s, l, w)
			p.Touch(s, uint64(1)<<l)
		}
	}
	// Figure 3 initializes every lane's frontier to its seed set
	// unconditionally (never empty: normalizeSeeds guarantees a seed).
	b.rebuild(p.Touched(), func(v uint32) uint64 { return p.Mask(v) })

	finish := func(l int) { b.snapshot(l, p) }
	// Single-writer fast paths at procs = 1, as in PRNibbleBatch. push and
	// touchNext close over the next variable itself, so they follow the
	// p/next buffer swap each round.
	serial := procs == 1
	push := func(src, dst uint32, lanes uint64) {
		base := int(src) << 6
		for mm := lanes; mm != 0; mm &= mm - 1 {
			l := bits.TrailingZeros64(mm)
			next.AtomicAdd(dst, l, b.shares[base+l])
		}
		next.Touch(dst, lanes)
	}
	touchNext := func(v uint32, lanes uint64) { next.Touch(v, lanes) }
	if serial {
		push = func(src, dst uint32, lanes uint64) {
			base := int(src) << 6
			next.AddMasked(dst, b.shares[base:base+MaxBatchLanes], lanes)
			next.TouchSerial(dst, lanes)
		}
		touchNext = func(v uint32, lanes uint64) { next.TouchSerial(v, lanes) }
	}
	for t := 1; t <= T && b.running != 0; t++ {
		if b.retireCancelled(cfg.Cancel, finish) {
			break
		}
		dense := b.useDense()
		b.roundStats(dense)
		next.Reset(procs)
		active := b.active
		parallel.For(procs, len(active), 512, func(i int) {
			v := active[i]
			m := b.activeMask[v]
			d := float64(g.Degree(v))
			base := int(v) << 6
			touchNext(v, m)
			for mm := m; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				pv := p.Get(v, l)
				next.Add(v, l, pv/2)
				b.shares[base+l] = pv / (2 * d)
			}
		})
		if dense {
			ligra.EdgeApplyLanesDense(procs, g, b.activeMask, push)
		} else {
			ligra.EdgeApplyLanesSparse(procs, g, active, b.activeMask, b.degs, b.offs, push)
		}
		b.rebuild(next.Touched(), func(v uint32) uint64 {
			m := next.Mask(v)
			d := float64(g.Degree(v))
			var keep uint64
			for mm := m; mm != 0; mm &= mm - 1 {
				l := bits.TrailingZeros64(mm)
				if next.Get(v, l) >= eps*d {
					keep |= uint64(1) << l
				}
			}
			return keep & b.running
		})
		// A lane whose filter emptied returns p_{t-1} (Figure 3 lines
		// 15–16): snapshot before the buffer swap.
		for m := b.running; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros64(m); b.sizes[l] == 0 {
				finish(l)
			}
		}
		p, next = next, p
	}
	// Lanes that ran the full T rounds return p_T, the post-swap buffer.
	for m := b.running; m != 0; m &= m - 1 {
		finish(bits.TrailingZeros64(m))
	}
	bw.Release(procs)
	return b.vecs, b.stats
}
