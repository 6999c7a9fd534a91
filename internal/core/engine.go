package core

import (
	"fmt"

	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// engine.go implements the shared frontier engine behind the synchronous
// diffusion loops (Nibble, PR-Nibble, HK-PR, evolving sets). Every one of
// those algorithms repeats the same per-iteration bookkeeping — compute the
// frontier volume, reset/reserve a scratch accumulator to the
// |F| + vol(F) locality bound, run a vertex phase that hoists a per-source
// share, run an edge phase that moves the share along every frontier edge,
// then walk what the round touched, optionally merging it into a persistent
// vector, and keep what passes the threshold as the next frontier —
// differing only in the push rule plugged into the middle. The engine owns
// that loop skeleton once (round, then advance), and with it the adaptive
// decisions:
//
//   - Edge phase: per round, the engine picks Ligra's sparse or dense
//     traversal via the direction heuristic |F| + vol(F) > (n + 2m)/k. A
//     sparse round pushes: the frontier's ID list is cut edge-balanced
//     through a degree prefix sum and every edge adds its source's share
//     (one load from a frontier-indexed array) into the scratch. A dense
//     round pulls (ligra.EdgePull): shares sit in a vertex-indexed array
//     that is zero outside the frontier, and every vertex sums its
//     neighbours' slots in adjacency order into a flat scratch — one writer
//     per vertex, no atomics.
//   - Workers: a sparse round of at most one traversal chunk of edges, and
//     every round of a one-worker run, is run by a single goroutine, which
//     adds with plain stores and merges and filters in one pass; only a
//     round that several workers really share pays for atomic adds and
//     per-phase fan-out.
//   - Vectors: residual/mass accumulators are adaptive (vec): they start as
//     phase-concurrent hash tables, borrowed from the run's workspace, and
//     promote — sticky, at a phase boundary — to flat Dense arrays once
//     their support bound crosses n/workspace.PromoteFrac (a dense round
//     promotes its scratch regardless), after which every Get/Add is an
//     array operation. Either kind lists its entries, so nothing a round
//     does costs a table's capacity.
//
// All three decisions are representation-only: the same pushes move the same
// values in every mode, so clusters and Stats are identical across
// FrontierMode settings and worker counts (the cross-mode determinism suite
// pins this down). Float bits are a narrower promise. Vertex phase, merge
// and pull rounds have one writer per entry and a fixed addition order, and
// a single writer's scratch lists its entries — the next frontier — in the
// order it created them, whatever the table's capacity; so a run that takes
// only dense rounds (FrontierDense), or runs one worker, returns the same
// bits every time, at any worker count, on either graph representation,
// from fresh or recycled scratch. A sparse round that several workers share
// adds in schedule order (the paper's fetch-and-add does too) and may differ
// in the last bit from run to run. See DESIGN.md §4.

// FrontierMode selects the frontier engine's representation strategy.
type FrontierMode uint8

const (
	// FrontierAuto switches between sparse and dense per iteration using
	// Ligra's direction heuristic, and promotes vectors to dense arrays
	// when their support bound crosses the promotion threshold.
	FrontierAuto FrontierMode = iota
	// FrontierSparse pins the sparse representations: ID-list frontiers and
	// hash-table vectors (the pre-engine behaviour).
	FrontierSparse
	// FrontierDense pins the dense representations: pull-direction edge
	// traversal and flat array vectors from the start. Every round then has
	// a fixed addition order, so results are bit-identical at any worker
	// count.
	FrontierDense
)

// String returns the mode's wire spelling ("auto", "sparse", "dense").
func (m FrontierMode) String() string {
	switch m {
	case FrontierSparse:
		return "sparse"
	case FrontierDense:
		return "dense"
	default:
		return "auto"
	}
}

// ParseFrontierMode converts a wire spelling to a FrontierMode. The empty
// string means FrontierAuto.
func ParseFrontierMode(s string) (FrontierMode, error) {
	switch s {
	case "", "auto":
		return FrontierAuto, nil
	case "sparse":
		return FrontierSparse, nil
	case "dense":
		return FrontierDense, nil
	}
	return FrontierAuto, fmt.Errorf("core: unknown frontier mode %q (want auto, sparse or dense)", s)
}

// RunConfig bundles the execution environment of one parallel diffusion:
// the worker count, the frontier representation strategy, and the workspace
// pool to borrow scratch state from. The zero value runs with
// all cores, the auto frontier mode, and per-run (unpooled) scratch
// allocation — exactly the pre-workspace behaviour.
type RunConfig struct {
	// Procs is the worker count (<= 0 = all cores; 1 = the paper's T1
	// sequential schedule of the parallel algorithm). Clusters and Stats do
	// not depend on it; float bits do not either with one worker or under
	// FrontierDense, and may differ in the last place between runs
	// otherwise (see the file comment).
	Procs int
	// Frontier selects the engine's frontier representation strategy.
	Frontier FrontierMode
	// Workspace, when non-nil, is the pool the run borrows its scratch
	// state (hash tables, share array, frontier ID buffers) from instead of
	// allocating per call. The pool must match the graph's
	// vertex count; a mismatched pool is ignored (the run falls back to
	// fresh allocation) rather than corrupting someone else's arenas. A
	// pool changes where scratch memory comes from, never what is computed.
	Workspace *workspace.Pool
	// Cancel, when non-nil, is observed at round boundaries: once it fires
	// (a deadline expired, a client went away), the run stops at the next
	// synchronous round and returns the partial vector computed so far —
	// no error, no panic, workspaces released normally. Callers that must
	// not serve partial answers check their own deadline/context after the
	// run returns (the service layer does exactly that and discards the
	// partial result without caching it). A nil channel never cancels.
	Cancel <-chan struct{}
	// Observer, when non-nil, receives one event per synchronous round from
	// the frontier engine — the per-round breakdown of the Stats totals,
	// plus the engine's sparse/dense traversal decision. A nil observer
	// costs one pointer comparison per round and zero allocations (the
	// AllocsPerRun test in observer_test.go pins this down). The observer
	// is called from the kernel's driving goroutine, synchronously between
	// rounds: implementations must be fast and must not block. rand-HK-PR
	// runs no rounds; it emits a single synthetic event summarizing the
	// whole walk phase.
	Observer Observer
}

// Observer receives per-round kernel telemetry from the frontier engine.
// One Round call per synchronous round, in round order.
type Observer interface {
	// Round reports one frontier round before its edge phase runs: the
	// 0-based round index, the frontier size |F| (== the vertex pushes the
	// round performs), the pushes and edges-touched vol(F) this round adds
	// to the run's Stats, and whether the engine selected the dense (pull)
	// traversal.
	Round(round, frontier int, pushes, edges int64, dense bool)
}

// cancelled reports whether a cancellation channel has fired; a nil channel
// never cancels. Kernels call it once per synchronous round — cheap against
// a round's edge work, prompt enough that a cancelled diffusion stops
// within one round.
func cancelled(ch <-chan struct{}) bool {
	if ch == nil {
		return false
	}
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// acquireWorkspace checks a workspace for a universe of n vertices out of
// pool, falling back to a fresh unpooled workspace when no (or a
// wrong-universe) pool is configured. The caller owns the result and must
// Release it on the non-panicking path only: a workspace abandoned by a
// panic mid-phase may hold half-claimed entries whose reset would be
// incomplete, so it is left to the GC instead of being recycled.
func acquireWorkspace(pool *workspace.Pool, n int) *workspace.Workspace {
	if pool == nil || pool.Universe() != n {
		return workspace.New(n)
	}
	return pool.Acquire()
}

// vec is an adaptive diffusion vector: a sparse.Table that starts as a
// phase-concurrent hash table and, in auto mode, promotes (sticky) to a
// flat Dense array once a reset/reserve bound crosses n/workspace.PromoteFrac.
// At that point the hash table would occupy a comparable number of cache
// lines anyway, so the O(n) array pays for itself immediately in lookup
// cost. All phase-concurrent operations delegate to the embedded Table;
// reset and reserve are the phase boundaries where promotion may happen.
// Hash tables are borrowed from the run's workspace, so in the pooled steady
// state a sparse run allocates none; a Dense backing is allocated per run.
type vec struct {
	sparse.Table
	n    int
	mode FrontierMode
}

// newVec builds an adaptive vector for a graph with n vertices, borrowing
// any hash table from ws.
func newVec(n int, mode FrontierMode, capacity int, ws *workspace.Workspace) *vec {
	if mode == FrontierDense {
		return &vec{Table: sparse.NewDense(n), n: n, mode: mode}
	}
	return &vec{Table: ws.Table(capacity), n: n, mode: mode}
}

// shouldPromote reports whether a support bound warrants switching the
// backing table to a Dense array.
func (v *vec) shouldPromote(bound int) bool {
	return v.mode == FrontierAuto && v.n != 0 && bound > v.n/workspace.PromoteFrac
}

// promote switches a hash backing to a fresh Dense array (phase boundary
// only), copying the entries over when keep is set, and reports whether it
// did; a vector that is already dense is left alone. The table stays with
// the workspace, which clears it at Release.
func (v *vec) promote(keep bool) bool {
	m, isHash := v.Table.(*sparse.ConcurrentMap)
	if !isHash {
		return false
	}
	if keep {
		v.Table = sparse.PromoteToDense(v.n, m)
	} else {
		v.Table = sparse.NewDense(v.n)
	}
	return true
}

// reset clears the vector and ensures capacity for the per-phase bound,
// promoting first when the bound crosses the threshold (phase boundary
// only). A reset-promotion discards the old entries anyway, so it installs
// an empty Dense instead of copying them.
func (v *vec) reset(p, bound int) {
	if v.shouldPromote(bound) && v.promote(false) {
		return
	}
	v.Table.Reset(p, bound)
}

// reserve grows the vector so that extra more entries fit, promoting (with
// the current entries copied over) when the resulting support bound
// crosses the threshold (phase boundary only).
func (v *vec) reserve(extra int) {
	if v.shouldPromote(v.Table.Len()+extra) && v.promote(true) {
		return
	}
	v.Table.Reserve(extra)
}

// frontierEngine drives the shared per-round bookkeeping for one diffusion
// run. It is not safe for concurrent use; each diffusion creates its own,
// wired to the run's workspace, from which all scratch is borrowed: the
// frontier-sized arrays of the sparse rounds (ws.Local) and, lazily, the
// graph-sized ones of the dense rounds (vertex-indexed shares, ID buffer) —
// a run that never goes dense never pays for those.
type frontierEngine struct {
	g       graph.Graph
	procs   int
	mode    FrontierMode
	st      *Stats
	ws      *workspace.Workspace
	obs     Observer         // per-round telemetry sink; nil = disabled
	local   *workspace.Local // frontier-indexed shares and degree offsets, next-frontier IDs
	sharesV []float64        // per-source state, vertex-indexed, zero off the frontier (dense rounds)
	// p is the worker count of the round in progress: procs, or 1 for a round
	// too small to share (serialRoundEdges). With p == 1 one goroutine runs
	// every phase, and the engine's own use the tables' plain-store operations.
	p int
}

func newFrontierEngine(g graph.Graph, procs int, mode FrontierMode, st *Stats, ws *workspace.Workspace, obs Observer) *frontierEngine {
	return &frontierEngine{g: g, procs: procs, mode: mode, st: st, ws: ws, obs: obs, local: ws.Local()}
}

// useDense resolves the engine's mode to a per-round traversal decision.
func (e *frontierEngine) useDense(size int, vol uint64) bool {
	switch e.mode {
	case FrontierSparse:
		return false
	case FrontierDense:
		return true
	default:
		return ligra.OverDenseThreshold(e.g, size, vol)
	}
}

// roundSpec plugs one algorithm's push rule into the engine's round.
type roundSpec struct {
	// scratch receives the edge-phase pushes. It is reset to the
	// |F| + vol(F) bound at the start of the round (or reserved by that
	// much when accumulate is set, for tables that persist across rounds).
	scratch    *vec
	accumulate bool
	// before, if non-nil, runs after the scratch reset with the round's
	// frontier size and volume — the hook for auxiliary reservations (e.g.
	// PR-Nibble reserving its mass vector by |F|).
	before func(size int, vol uint64)
	// source runs once per frontier vertex (the vertex phase). It may
	// side-effect other vectors — v's own entries only, which is what lets
	// it use AddOwned — and must return the per-edge share moved from v,
	// positive when v has neighbours (a pull round recognises a newly
	// touched destination by its nonzero sum); the engine stores it so the
	// edge phase reads it with one array load per edge in either direction.
	source func(i int, v uint32) float64
}

// serialRoundEdges is the edge work up to which a sparse round runs on one
// goroutine whatever the worker count: it is ligra's edge chunk, so the
// traversal would not have been split anyway, and a frontier this small
// offers its other phases no parallelism either (the paper's own remark) —
// only goroutine start-up and atomics nobody contends for.
const serialRoundEdges = 2048

// round runs one synchronous frontier round: stats, scratch sizing, vertex
// phase, and the sparse push or dense pull edge phase the heuristic selects
// (scratch[dst] += share[src] over every frontier edge either way). The
// frontier's degrees are read once, into the offsets that give the round its
// volume and the push its edge-balanced chunks. What the round touched is
// in the scratch afterwards; advance turns it into the next frontier.
func (e *frontierEngine) round(frontier ligra.VertexSubset, spec roundSpec) {
	size := frontier.Size()
	e.local.Offs = growTo(e.local.Offs, size+1)
	offs := e.local.Offs
	vol := graph.DegreeOffsets(e.procs, e.g, frontier.IDs(), offs)
	e.st.Pushes += int64(size)
	e.st.EdgesTouched += int64(vol)
	e.st.Iterations++
	dense := e.useDense(size, vol)
	if e.obs != nil {
		e.obs.Round(int(e.st.Iterations)-1, size, int64(size), int64(vol), dense)
	}
	e.p = e.procs
	if !dense && vol <= serialRoundEdges {
		e.p = 1
	}
	p := e.p
	bound := size + int(vol)
	scratch := spec.scratch
	if dense {
		// The pull pass writes a flat array with plain stores: promote now,
		// whatever the bound says.
		scratch.promote(spec.accumulate)
	}
	if spec.accumulate {
		scratch.reserve(bound)
	} else {
		scratch.reset(p, bound)
	}
	if spec.before != nil {
		spec.before(size, vol)
	}
	if dense {
		if e.sharesV == nil {
			e.sharesV = e.ws.Floats()
		}
		sharesV := e.sharesV
		acc := scratch.Table.(*sparse.Dense)
		// The pull pass lists what the sources add to the scratch, so they
		// need not take turns at its touched list.
		acc.Defer(true)
		ligra.VertexMapIndexed(p, frontier, func(i int, v uint32) {
			sharesV[v] = spec.source(i, v)
		})
		ligra.EdgePull(p, e.g, sharesV, acc)
		acc.Defer(false)
		// Under pull a stale share is a wrong answer, not a skipped bit:
		// leave the array zero for the next round and the next borrower.
		ligra.VertexMap(p, frontier, func(v uint32) { sharesV[v] = 0 })
		return
	}
	e.local.Shares = growTo(e.local.Shares, size)
	shares := e.local.Shares
	ligra.VertexMapIndexed(p, frontier, func(i int, v uint32) {
		shares[i] = spec.source(i, v)
	})
	push := func(i int, _, dst uint32) { scratch.Add(dst, shares[i]) }
	if p == 1 {
		push = func(i int, _, dst uint32) { scratch.AddSerial(dst, shares[i]) }
	}
	ligra.EdgeApplyIndexedScratch(p, e.g, frontier, offs, push)
}

// advance ends a round: every vertex the round touched — the entries of its
// scratch — is folded into the persistent vector into (into[v] += scratch[v];
// nil skips the merge) and kept for the next frontier when keep says so of
// its value there (or, without a merge, in the scratch). Only touched
// entries changed, so these are the only candidates. One goroutine does it
// all in a single pass over the scratch, in the order the entries were
// created; several workers merge first and filter second, because a
// parallel filter evaluates its predicate twice.
//
// The frontier goes to recycled storage: the workspace's graph-sized ID
// buffer once something has paid for it (a dense round, an earlier run),
// its frontier-sized one otherwise. Either alternates safely with the
// current frontier, dead by now, and never aliases the scratch's key list.
func (e *frontierEngine) advance(scratch, into *vec, keep func(v uint32, x float64) bool) ligra.VertexSubset {
	n := scratch.Len()
	var ids []uint32
	if e.sharesV != nil || e.ws.HasIDs() {
		ids = e.ws.IDs()
	} else {
		e.local.IDs = growTo(e.local.IDs, n)
		ids = e.local.IDs[:0]
	}
	if into != nil {
		into.reserve(n)
	}
	if e.p == 1 {
		scratch.ForEach(func(v uint32, x float64) {
			if into != nil {
				x = into.AddSerial(v, x)
			}
			if keep(v, x) {
				ids = append(ids, v)
			}
		})
		return ligra.FromIDs(ids)
	}
	touched := scratch.Keys(e.p)
	vals := scratch
	if into != nil {
		parallel.For(e.p, n, 512, func(i int) {
			into.AddOwned(touched[i], scratch.Get(touched[i]))
		})
		vals = into
	}
	return ligra.VertexFilterInto(e.p, ligra.FromIDs(touched), ids, func(v uint32) bool {
		return keep(v, vals.Get(v))
	})
}
