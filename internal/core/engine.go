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
// frontier volume, clear the round's scratch, run a vertex phase that hoists
// a per-source share, run an edge phase that moves the share along every
// frontier edge, then walk what the round touched, optionally merging it
// into a persistent vector, and keep what passes the threshold as the next
// frontier — differing only in the push rule plugged into the middle. The
// engine owns that loop skeleton once (round, then advance), and with it
// the adaptive decisions:
//
//   - Vectors: a run starts with one sparse.Index, vertex → slot with slots
//     in creation order, borrowed from its workspace, and every vector of the
//     run (PR-Nibble's p, r and delta, say) is a plain slot-indexed column
//     beside it, as are the degree (read once per slot from the graph's
//     offsets) and a round stamp. The frontier carries slots, so the vertex
//     phase and advance look nothing up; the edge phase probes the index
//     once per edge, however many vectors the run has; and "touched this
//     round" is the stamp, with a touched list in first-touch order. Once
//     the support plus a round's bound passes the workspace's promotion
//     point (Workspace.PromoteAt), or a round goes dense, the run promotes
//     — sticky, at a phase boundary — to flat sparse.Dense vectors keyed by
//     vertex, copying the columns out, and keys become vertices.
//   - Edge phase: per round, the engine picks Ligra's sparse or dense
//     traversal via the direction heuristic |F| + vol(F) > (n + 2m)/k. A
//     sparse round pushes: every edge adds its source's share into the
//     scratch (one load from a frontier-indexed array). A dense round pulls
//     (ligra.EdgePull): shares sit in a vertex-indexed array that is zero
//     outside the frontier, and every vertex sums its neighbours' slots in
//     adjacency order into a flat scratch — one writer per vertex, no
//     atomics.
//   - Workers: a sparse round of at most one traversal chunk of edges, and
//     every round of a one-worker run, is run by a single goroutine: one
//     straight loop over the frontier's edges with plain stores, which
//     merges and filters in one pass. A sparse round several workers share
//     cuts the frontier's edges into balanced chunks (ligra), claims slots
//     with a CAS on the index and adds with a CAS loop.
//
// All three decisions are representation-only: the same pushes move the
// same values in every mode, so clusters and Stats are identical across
// FrontierMode settings and worker counts (the cross-mode determinism suite
// pins this down). Float bits are a narrower promise. Vertex phase, merge
// and pull rounds have one writer per entry and a fixed addition order, and
// a single writer's touched list — the next frontier — is in first-touch
// order, whatever the index's capacity or hash; so a run that takes only
// dense rounds (FrontierDense), or runs one worker, returns the same bits
// every time, at any worker count, on either graph representation, from
// fresh or recycled scratch. A sparse round that several workers share adds
// in schedule order (the paper's fetch-and-add does too) and may differ in
// the last bit from run to run. See DESIGN.md §4.

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
	// state (index, share array, frontier ID buffers) from instead of
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

// vec is one vector of a diffusion run. Until the run promotes, it is a
// slot-indexed column of the run's index, zero wherever it holds no entry;
// after that, and from the start under FrontierDense, it is a sparse.Dense
// keyed by vertex. A per-round vector is cleared whenever it becomes a
// round's scratch and holds the entries of the round that last wrote it; any
// other vector persists for the run and holds an entry at every slot whose
// value is nonzero.
type vec struct {
	col      []float64
	d        *sparse.Dense
	id       int // column number in the index
	perRound bool
	round    uint32 // the index round whose touched list holds the entries (per-round vectors; 0 = none yet)
}

// get returns k's value.
func (x *vec) get(k uint32) float64 {
	if x.d != nil {
		return x.d.Get(k)
	}
	return x.col[k]
}

// add adds delta to k's value and returns the sum, in a phase in which the
// caller is the only one that reads or writes k.
func (x *vec) add(k uint32, delta float64) float64 {
	if x.d != nil {
		return x.d.AddSerial(k, delta)
	}
	x.col[k] += delta
	return x.col[k]
}

// frontierEngine drives the shared per-round bookkeeping for one diffusion
// run. It is not safe for concurrent use; each diffusion creates its own,
// wired to the run's workspace, from which all scratch is borrowed: the
// index and its columns, the frontier-sized arrays of the sparse rounds
// (ws.Local) and, lazily, the graph-sized ones of the dense rounds
// (vertex-indexed shares, ID buffer) — a run that never goes dense never
// pays for those.
//
// A frontier, and every key a kernel hands the engine or gets from it, is a
// slot of the index until the run promotes, and a vertex after.
type frontierEngine struct {
	g       graph.Graph
	n       int
	procs   int
	mode    FrontierMode
	st      *Stats
	ws      *workspace.Workspace
	obs     Observer         // per-round telemetry sink; nil = disabled
	local   *workspace.Local // frontier-indexed shares and degree offsets, next-frontier IDs
	sharesV []float64        // per-source state, vertex-indexed, zero off the frontier (dense rounds)
	// p is the worker count of the round in progress: procs, or 1 for a round
	// too small to share (serialRoundEdges). With p == 1 one goroutine runs
	// every phase, and the engine uses plain loads and stores throughout.
	p int

	idx   *sparse.Index // the run's vertex → slot index; nil once the run has promoted, and under FrontierDense
	verts []uint32      // idx's slot → vertex column
	degs  []uint32      // idx's owner column: d(v)+1 per slot, 0 until first read
	offs  []uint64      // g.Offsets(), where the degrees are read
	vecs  []*vec        // the run's indexed vectors, re-pointed when idx grows
}

func newFrontierEngine(g graph.Graph, procs int, mode FrontierMode, st *Stats, ws *workspace.Workspace, obs Observer) *frontierEngine {
	e := &frontierEngine{g: g, n: g.NumVertices(), procs: procs, mode: mode, st: st, ws: ws, obs: obs, local: ws.Local()}
	if mode != FrontierDense {
		e.idx, e.offs = ws.Index(), g.Offsets()
		e.verts, e.degs = e.idx.Vertices(), e.idx.Aux()
	}
	return e
}

// vector adds a vector to the run, empty.
func (e *frontierEngine) vector(perRound bool) *vec {
	x := &vec{perRound: perRound}
	if e.idx == nil {
		x.d = sparse.NewDense(e.n)
		return x
	}
	x.id, x.col = len(e.vecs), e.idx.Col(len(e.vecs))
	e.vecs = append(e.vecs, x)
	return x
}

// refresh re-points the engine's and the vectors' columns after the index
// grew.
func (e *frontierEngine) refresh() {
	e.verts, e.degs = e.idx.Vertices(), e.idx.Aux()
	for _, x := range e.vecs {
		x.col = e.idx.Col(x.id)
	}
}

// seed gives x the value w at each vertex of vs — the run's first entries —
// and returns vs turned into keys, in place.
func (e *frontierEngine) seed(x *vec, vs []uint32, w float64) []uint32 {
	if e.idx == nil {
		for _, v := range vs {
			x.d.AddOwned(v, w)
		}
		return vs
	}
	if x.perRound {
		e.idx.NextRound()
		x.round = e.idx.Round()
	}
	for i, v := range vs {
		k := e.idx.Slot(v)
		if x.perRound {
			e.idx.Touch(k)
		}
		vs[i] = k
	}
	e.refresh()
	for _, k := range vs {
		x.col[k] += w
	}
	return vs
}

// vertex returns the vertex key k stands for.
func (e *frontierEngine) vertex(k uint32) uint32 {
	if e.idx == nil {
		return k
	}
	return e.verts[k]
}

// key returns v's key, if v has one.
func (e *frontierEngine) key(v uint32) (uint32, bool) {
	if e.idx == nil {
		return v, true
	}
	return e.idx.Find(v)
}

// degree returns the degree of key k's vertex, read from the graph's
// offsets the first time and from the degree column after. Each key has one
// caller at a time.
func (e *frontierEngine) degree(k uint32) uint32 {
	if e.idx == nil {
		return e.g.Degree(k)
	}
	if d := e.degs[k]; d != 0 {
		return d - 1
	}
	v := e.verts[k]
	d := uint32(e.offs[v+1] - e.offs[v])
	e.degs[k] = d + 1
	return d
}

// touched reports whether this round touched key k of its scratch x.
func (e *frontierEngine) touched(x *vec, k uint32) bool {
	if e.idx == nil {
		return x.d.Has(k)
	}
	return e.idx.Touched(k)
}

// noSlots is the entry list of a per-round vector nothing has written yet.
var noSlots = []uint32{}

// list returns the slots holding a per-round indexed vector's entries, and
// nil for any other vector (every nonzero slot).
func (e *frontierEngine) list(x *vec) []uint32 {
	switch {
	case !x.perRound:
		return nil
	case x.round == 0:
		return noSlots
	}
	return e.idx.List(x.round)
}

// snapshot copies x's nonzero entries, times scale, into a Vector the
// caller owns.
func (e *frontierEngine) snapshot(x *vec, scale float64) *sparse.Vector {
	if x.d != nil {
		return sparse.Snapshot(x.d, scale)
	}
	return sparse.Snapshot(e.idx.View(x.col, e.list(x)), scale)
}

// promote switches the run from its index to flat vectors (phase boundary
// only): every vector's entries are copied into a sparse.Dense, and the
// frontier's keys become the vertices they stood for, in place. At that
// support the index would occupy a comparable number of cache lines anyway,
// so the O(n) arrays pay for themselves in lookup cost. The index stays
// with the workspace, which clears it at Release.
func (e *frontierEngine) promote(frontier []uint32) {
	for _, x := range e.vecs {
		x.d = sparse.PromoteToDense(e.n, e.idx.View(x.col, e.list(x)))
		x.col = nil
	}
	for i, k := range frontier {
		frontier[i] = e.verts[k]
	}
	e.idx, e.verts, e.degs, e.vecs = nil, nil, nil, nil
	e.ws.DropIndex()
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
	// scratch receives the edge-phase pushes. A per-round scratch is cleared
	// at the start of the round; with accumulate set, a persistent one keeps
	// its values and the pushes add to them.
	scratch    *vec
	accumulate bool
	// source runs once per frontier key (the vertex phase). It may update
	// other vectors at its own key only and returns the share moved along
	// each edge of the key's vertex — positive when it has neighbours (a pull
	// round recognises a newly touched destination by its nonzero sum) —
	// and, when self is set, an amount the engine adds into the scratch at
	// the key itself before any edge moves. The engine stores the share so
	// the edge phase reads it with one array load per edge.
	source func(i int, k uint32) (own, share float64)
	self   bool
}

// serialRoundEdges is the edge work up to which a sparse round runs on one
// goroutine whatever the worker count: it is ligra's edge chunk, so the
// traversal would not have been split anyway, and a frontier this small
// offers its other phases no parallelism either (the paper's own remark) —
// only goroutine start-up and atomics nobody contends for.
const serialRoundEdges = 2048

// round runs one synchronous frontier round: stats, scratch clearing,
// vertex phase, and the sparse push or dense pull edge phase the heuristic
// selects (scratch[dst] += share[src] over every frontier edge either way).
// The frontier's degrees are read once, into the offsets that give the round
// its volume and the push its edge-balanced chunks. What the round touched
// is in the scratch afterwards; advance turns it into the next frontier. A
// round that promotes the run rewrites the frontier's keys in place.
func (e *frontierEngine) round(frontier []uint32, spec roundSpec) {
	size := len(frontier)
	e.local.Offs = growTo(e.local.Offs, size+1)
	offs := e.local.Offs
	vol := e.degreeOffsets(frontier, offs)
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
	// A round may add up to vol(F) slots, so its bound counts as well as the
	// support so far.
	if e.idx != nil && (dense || e.mode == FrontierAuto && e.idx.Len()+size+int(vol) > e.ws.PromoteAt()) {
		e.promote(frontier)
	}
	scratch := spec.scratch
	switch {
	case e.idx == nil && !spec.accumulate:
		scratch.d.Reset(e.p, 0)
	case e.idx != nil:
		if !spec.accumulate {
			for _, k := range e.list(scratch) {
				scratch.col[k] = 0
			}
		}
		e.idx.NextRound()
		if !spec.accumulate {
			scratch.round = e.idx.Round()
		}
	}
	if dense {
		e.pull(frontier, spec)
		return
	}
	e.local.Shares = growTo(e.local.Shares, size)
	shares := e.local.Shares
	if e.p == 1 {
		// One goroutine: plain loops, and no closure per edge or per round.
		for i, k := range frontier {
			shares[i] = e.source(spec, i, k)
		}
		if e.idx != nil {
			e.spread(frontier, scratch)
			return
		}
	} else {
		ligra.VertexMapIndexed(e.p, ligra.FromIDs(frontier), func(i int, k uint32) {
			shares[i] = e.source(spec, i, k)
		})
	}
	e.push(frontier, offs, scratch)
}

// source runs the kernel's vertex phase for key k, adding its own amount
// into the scratch, and returns the share its edges move.
func (e *frontierEngine) source(spec roundSpec, i int, k uint32) float64 {
	own, share := spec.source(i, k)
	if spec.self {
		switch x := spec.scratch; {
		case x.d != nil:
			x.d.AddOwned(k, own)
		case e.p == 1:
			e.idx.Touch(k)
			x.col[k] += own
		default:
			e.idx.TouchAtomic(k)
			x.col[k] += own
		}
	}
	return share
}

// degreeOffsets is graph.DegreeOffsets over the frontier's keys.
func (e *frontierEngine) degreeOffsets(frontier []uint32, offs []uint64) uint64 {
	if e.idx == nil {
		return graph.DegreeOffsets(e.procs, e.g, frontier, offs)
	}
	offs[0] = 0
	tail := offs[1 : len(frontier)+1]
	if e.procs == 1 {
		var vol uint64
		for i, k := range frontier {
			vol += uint64(e.degree(k))
			tail[i] = vol
		}
		return vol
	}
	parallel.For(e.procs, len(frontier), 0, func(i int) { tail[i] = uint64(e.degree(frontier[i])) })
	return parallel.ScanInclusive(e.procs, tail, tail)
}

// spread is the edge phase of an indexed round one goroutine runs: one
// straight loop over the frontier's edges, one index probe each.
func (e *frontierEngine) spread(frontier []uint32, scratch *vec) {
	idx, verts, shares := e.idx, e.verts, e.local.Shares
	adj, decode, capBefore := e.local.Adj, graph.NeedsDecode(e.g), idx.Cap()
	for i, k := range frontier {
		ns := e.g.NeighborsInto(adj, verts[k])
		if decode && cap(ns) > cap(adj) {
			adj = ns // the decode buffer grew; a heap list is never kept
		}
		idx.Spread(ns, scratch.id, shares[i])
	}
	e.local.Adj = adj
	if idx.Cap() != capBefore {
		e.refresh()
	}
}

// push is the sparse edge phase ligra's edge-balanced chunks run: several
// workers claim slots with a CAS and add with a CAS loop, so the sums,
// though not their last bits, are those of one worker; over flat vectors
// the same, keyed by vertex.
func (e *frontierEngine) push(frontier []uint32, offs []uint64, scratch *vec) {
	shares, vs := e.local.Shares, frontier
	if e.idx == nil {
		acc := scratch.d
		fn := func(i int, _, dst uint32) { acc.Add(dst, shares[i]) }
		if e.p == 1 {
			fn = func(i int, _, dst uint32) { acc.AddSerial(dst, shares[i]) }
		}
		ligra.EdgeApplyIndexedScratch(e.p, e.g, ligra.FromIDs(vs), offs, fn)
		return
	}
	if e.idx.Reserve(len(frontier) + int(offs[len(frontier)])) {
		e.refresh()
	}
	e.local.Verts = growTo(e.local.Verts, len(frontier))
	vs = e.local.Verts
	for i, k := range frontier {
		vs[i] = e.verts[k]
	}
	idx, col := e.idx, scratch.col
	ligra.EdgeApplyIndexedScratch(e.p, e.g, ligra.FromIDs(vs), offs, func(i int, _, dst uint32) {
		t := idx.Claim(dst)
		idx.TouchAtomic(t)
		sparse.AtomicAdd(&col[t], shares[i])
	})
}

// pull is the dense round over flat vectors (ligra.EdgePull): shares sit
// in a vertex-indexed array that is zero outside the frontier, and every
// vertex sums its neighbours' slots in adjacency order — one writer per
// vertex, no atomics.
func (e *frontierEngine) pull(frontier []uint32, spec roundSpec) {
	if e.sharesV == nil {
		e.sharesV = e.ws.Floats()
	}
	p, acc, ids, sharesV := e.p, spec.scratch.d, ligra.FromIDs(frontier), e.sharesV
	// The pull pass lists what the sources add to the scratch, so they need
	// not take turns at its touched list.
	acc.Defer(true)
	ligra.VertexMapIndexed(p, ids, func(i int, v uint32) {
		sharesV[v] = e.source(spec, i, v)
	})
	ligra.EdgePull(p, e.g, sharesV, acc)
	acc.Defer(false)
	// Under pull a stale share is a wrong answer, not a skipped bit: leave
	// the array zero for the next round and the next borrower.
	ligra.VertexMap(p, ids, func(v uint32) { sharesV[v] = 0 })
}

// advance ends a round: every key the round touched — the entries of its
// scratch — is folded into the persistent vector into (into[k] += scratch[k];
// nil skips the merge) and kept for the next frontier when keep says so of
// its value there (or, without a merge, in the scratch). Only touched
// entries changed, so these are the only candidates. One goroutine does it
// all in a single pass over the touched list, in first-touch order; several
// workers merge first and filter second, because a parallel filter
// evaluates its predicate twice.
//
// The frontier goes to recycled storage: the workspace's graph-sized ID
// buffer once something has paid for it (a dense round, an earlier run),
// its frontier-sized one otherwise. Either alternates safely with the
// current frontier, dead by now, and never aliases a touched list.
func (e *frontierEngine) advance(scratch, into *vec, keep func(k uint32, x float64) bool) []uint32 {
	var touched []uint32
	if e.idx != nil {
		touched = e.idx.List(scratch.round)
	} else {
		touched = scratch.d.Keys(e.p)
	}
	var ids []uint32
	if e.sharesV != nil || e.ws.HasIDs() {
		ids = e.ws.IDs()
	} else {
		e.local.IDs = growTo(e.local.IDs, len(touched))
		ids = e.local.IDs[:0]
	}
	vals := scratch
	if into != nil {
		vals = into
	}
	if e.p == 1 && e.idx != nil && into != nil {
		// The local query's pass: two column loads per touched slot.
		d, r := scratch.col, into.col
		for _, k := range touched {
			x := r[k] + d[k]
			r[k] = x
			if keep(k, x) {
				ids = append(ids, k)
			}
		}
		return ids
	}
	if e.p == 1 {
		for _, k := range touched {
			x := scratch.get(k)
			if into != nil {
				x = into.add(k, x)
			}
			if keep(k, x) {
				ids = append(ids, k)
			}
		}
		return ids
	}
	if into != nil {
		parallel.For(e.p, len(touched), 512, func(i int) {
			into.add(touched[i], scratch.get(touched[i]))
		})
	}
	return ligra.VertexFilterInto(e.p, ligra.FromIDs(touched), ids, func(k uint32) bool {
		return keep(k, vals.get(k))
	}).IDs()
}
