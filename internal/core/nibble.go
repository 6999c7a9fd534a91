package core

import (
	"parcluster/internal/graph"
	"parcluster/internal/ligra"
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
func NibbleSeq(g graph.Graph, seeds []uint32, eps float64, T int) (*sparse.Map, Stats) {
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
			return p, st // p_{t-1}, per Figure 3 lines 15–16
		}
		p = next
	}
	return p, st
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
// sets the worker count and frontier mode and can lend the run its
// graph-sized scratch and its result map (which changes where memory
// lives, never what is computed).
func NibbleRun(g graph.Graph, seeds []uint32, eps float64, T int, cfg RunConfig) (*sparse.Map, Stats) {
	seeds = normalizeSeeds(g, seeds)
	procs := parallel.ResolveProcs(cfg.Procs)
	n := g.NumVertices()
	ws := acquireWorkspace(cfg.Workspace, n)
	var st Stats
	p := newVec(n, cfg.Frontier, len(seeds), ws)
	w := 1 / float64(len(seeds))
	for _, s := range seeds {
		p.Add(s, w)
	}
	frontier := ligra.FromIDs(seeds)
	next := newVec(n, cfg.Frontier, len(seeds), ws)
	eng := newFrontierEngine(g, procs, cfg.Frontier, &st, ws, cfg.Observer)
	// Hoisted out of the loop so each round costs no closure allocations;
	// the closures track the p/next swap through the captured variables, and
	// only scratch (a plain field) must be re-pointed per round.
	spec := roundSpec{
		source: func(_ int, v uint32) float64 {
			pv := p.Get(v)
			next.AddOwned(v, pv/2)
			return pv / (2 * float64(g.Degree(v)))
		},
	}
	above := func(v uint32, pv float64) bool {
		return pv >= eps*float64(g.Degree(v))
	}
	for t := 1; t <= T; t++ {
		if cancelled(cfg.Cancel) {
			break // partial vector; see RunConfig.Cancel
		}
		spec.scratch = next
		eng.round(frontier, spec)
		frontier = eng.advance(next, nil, above)
		if frontier.IsEmpty() {
			break // p_{t-1}, per Figure 3 lines 15–16
		}
		p, next = next, p
	}
	out := vecFromTable(p, cfg.Result)
	// Release only on the non-panicking path (see acquireWorkspace); the
	// result was snapshotted out of the workspace first.
	ws.Release(procs)
	return out, st
}
