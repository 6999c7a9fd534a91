package core

import (
	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
)

// nibble.go implements the Nibble algorithm of Spielman and Teng [44, 45]
// (§3.2): a lazy random walk from the seed whose small entries are truncated
// to zero after every step. Following the paper's modification, the
// algorithm runs for up to T iterations and returns the walk vector rather
// than performing a sweep per iteration (the caller applies one sweep at the
// end); it stops early, returning the previous vector, if truncation empties
// the frontier.
//
// Per step, every frontier vertex v (those with p[v] >= eps*d(v)) keeps half
// its mass and spreads the other half evenly over its d(v) neighbors; mass
// on sub-threshold vertices is intentionally discarded (that is the
// truncation). Theorem 2: O(T/eps) work and O(T log(1/eps)) depth.

// NibbleSeq is the sequential Nibble implementation, the reference the
// parallel one is tested against. The initial unit of mass is split evenly
// over the seed set (footnote 5 of the paper).
func NibbleSeq(g graph.Graph, seeds []uint32, eps float64, T int) (*sparse.Vector, Stats) {
	seeds = normalizeSeeds(g, seeds)
	var st Stats
	p := sparse.NewMap(len(seeds))
	w := 1 / float64(len(seeds))
	for _, s := range seeds {
		p.Set(s, w)
	}
	// Figure 3 initializes the frontier to the seed set unconditionally:
	// the first iteration pushes from the seeds even if their mass is
	// sub-threshold (the filter then empties the frontier and p_0 is
	// returned).
	frontier := append([]uint32(nil), seeds...)
	var adj []uint32
	for t := 1; t <= T; t++ {
		next := sparse.NewMap(len(frontier))
		for _, v := range frontier {
			pv := p.Get(v)
			next.Add(v, pv/2)
			ns := g.NeighborsInto(adj, v)
			adj = ns
			share := pv / (2 * float64(len(ns)))
			for _, w := range ns {
				next.Add(w, share)
			}
			st.Pushes++
			st.EdgesTouched += int64(len(ns))
		}
		st.Iterations++
		frontier = frontier[:0]
		next.ForEach(func(v uint32, pv float64) {
			if pv >= eps*float64(g.Degree(v)) {
				frontier = append(frontier, v)
			}
		})
		if len(frontier) == 0 {
			return sparse.Snapshot(p, 1), st // p_{t-1}, per Figure 3 lines 15–16
		}
		p = next
	}
	return sparse.Snapshot(p, 1), st
}

// NibbleRun is the parallel Nibble implementation of Figure 3: a vertexMap
// sends half of each frontier vertex's mass to itself, an edgeMap spreads
// the rest with fetch-and-add, and a filter over the touched vertices forms
// the next frontier. Larger seed sets grow the frontiers and, as the paper
// notes, the available parallelism. The iteration skeleton — the
// |frontier| + vol table bound (the locality guarantee: every entry of the
// next vector is a frontier vertex or one of its neighbors), the
// per-source share hoisting, the sparse/dense edge traversal, and the
// threshold filter — lives in the shared frontier engine (engine.go). cfg
// sets the worker count and frontier mode and can lend the run its scratch
// (which changes where memory lives, never what is computed).
func NibbleRun(g graph.Graph, seeds []uint32, eps float64, T int, cfg RunConfig) (*sparse.Vector, Stats) {
	seeds = normalizeSeeds(g, seeds)
	procs := parallel.ResolveProcs(cfg.Procs)
	n := g.NumVertices()
	ws := acquireWorkspace(cfg.Workspace, n)
	var st Stats
	eng := newFrontierEngine(g, procs, cfg.Frontier, &st, ws, cfg.Observer)
	p, next := eng.vector(true), eng.vector(true)
	frontier := eng.seed(p, seeds, 1/float64(len(seeds)))
	// Hoisted out of the loop so each round costs no closure allocations;
	// the closure tracks the p/next swap through the captured variables, and
	// only scratch (a plain field) must be re-pointed per round.
	spec := roundSpec{
		self: true,
		source: func(_ int, k uint32) (float64, float64) {
			pv := p.get(k)
			return pv / 2, pv / (2 * float64(eng.degree(k)))
		},
	}
	above := func(k uint32, pv float64) bool {
		return pv >= eps*float64(eng.degree(k))
	}
	for t := 1; t <= T; t++ {
		if cancelled(cfg.Cancel) {
			break // partial vector; see RunConfig.Cancel
		}
		spec.scratch = next
		eng.round(frontier, spec)
		frontier = eng.advance(next, nil, above)
		if len(frontier) == 0 {
			break // p_{t-1}, per Figure 3 lines 15–16
		}
		p, next = next, p
	}
	out := eng.snapshot(p, 1)
	// Release only on the non-panicking path (see acquireWorkspace); the
	// result was snapshotted out of the workspace first.
	ws.Release(procs)
	return out, st
}
