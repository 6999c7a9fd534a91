package core

import (
	"math"

	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
)

// hkpr.go implements the deterministic heat kernel PageRank algorithm of
// Kloster and Gleich [24] (§3.4): the degree-N Taylor approximation of
// h = e^-t * sum_k (t^k/k!) P^k s, computed by a coordinate-relaxation
// ("push") scheme over (vertex, level) residual entries.
//
// An entry (w, j+1) enters the work queue when its accumulating residual
// crosses the threshold
//
//	thresh(w, j+1) = e^t * eps * d(w) / (2 * N * psi_{j+1}(t))
//
// where psi_k(t) = sum_{m=0}^{N-k} k!/(m+k)! * t^m. (The threshold formula
// is reconstructed from [24]; the paper's PDF renders it with the epsilon
// and exponent sign mangled. The reconstruction is forced by the stated
// work bound O(N e^t / eps), which requires the threshold to scale with
// eps * e^t.) Residuals only grow, so "crossed at some point" equals
// "final value above threshold" — which is what the parallel filter tests,
// making the two versions process identical entry sets.
//
// The returned vector is scaled by e^-t so it approximates the heat kernel
// distribution h itself (sums to ~1); the sweep cut is scale-invariant, so
// this does not affect clustering.

// psiTable computes psi_k(t) for k = 0..N via the backward recurrence
// psi_N = 1, psi_k = 1 + t/(k+1) * psi_{k+1}. O(N) work — cheaper than the
// O(N^2) prefix-sum formulation the paper mentions, with identical values.
func psiTable(t float64, N int) []float64 {
	psi := make([]float64, N+1)
	psi[N] = 1
	for k := N - 1; k >= 0; k-- {
		psi[k] = 1 + t/float64(k+1)*psi[k+1]
	}
	return psi
}

// hkThreshold returns the queueing threshold for a vertex of degree d at
// level j.
func hkThreshold(t, eps float64, N int, psi []float64, d uint32, j int) float64 {
	return math.Exp(t) * eps * float64(d) / (2 * float64(N) * psi[j])
}

// hkKey packs a (vertex, level) residual coordinate.
func hkKey(v uint32, j int) uint64 { return uint64(j)<<32 | uint64(v) }

// HKPRSeq is the sequential HK-PR implementation: a FIFO queue of (v, j)
// entries processed exactly as in [24]. Work: O(N^2 + N e^t / eps). The
// unit of level-0 residual is split evenly over the seed set (footnote 5 of
// the paper), all of which is enqueued.
func HKPRSeq(g graph.Graph, seeds []uint32, t float64, N int, eps float64) (*sparse.Vector, Stats) {
	seeds = normalizeSeeds(g, seeds)
	if N < 1 {
		N = 1
	}
	var st Stats
	psi := psiTable(t, N)
	w := 1 / float64(len(seeds))
	r := make(map[uint64]float64, len(seeds))
	p := sparse.NewMap(16)
	type entry struct {
		v uint32
		j int
	}
	queue := make([]entry, 0, len(seeds))
	queued := make(map[uint64]bool, len(seeds))
	for _, s := range seeds {
		r[hkKey(s, 0)] = w
		queue = append(queue, entry{s, 0})
		queued[hkKey(s, 0)] = true
	}
	var adj []uint32
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		v, j := e.v, e.j
		rvj := r[hkKey(v, j)]
		p.Add(v, rvj)
		ns := g.NeighborsInto(adj, v)
		adj = ns
		d := float64(len(ns))
		st.Pushes++
		st.Iterations++
		st.EdgesTouched += int64(len(ns))
		if j+1 >= N {
			// Last level: remaining mass goes directly to p.
			for _, w := range ns {
				p.Add(w, rvj/d)
			}
			continue
		}
		M := t * rvj / (float64(j+1) * d)
		for _, w := range ns {
			key := hkKey(w, j+1)
			old := r[key]
			thresh := hkThreshold(t, eps, N, psi, g.Degree(w), j+1)
			if old < thresh && old+M >= thresh && !queued[key] {
				queue = append(queue, entry{w, j + 1})
				queued[key] = true
			}
			r[key] = old + M
		}
	}
	return sparse.Snapshot(p, math.Exp(-t)), st
}

// HKPRRun is the parallel HK-PR of Figure 7: levels are processed
// synchronously (all queue entries sharing a level value in parallel),
// which is safe because level-j pushes only write level-j+1 residuals.
// Theorem 4: O(N^2 + N e^t / eps) work, O(N t log(1/eps)) depth. The level
// loop rides the shared frontier engine (engine.go): each level is one
// engine round pushing tOverJ-scaled shares into the next level's residual
// table, with the r/r' double buffer swapped between rounds. cfg sets the
// worker count and frontier mode and can lend the run its graph-sized
// scratch (which changes where memory lives, never what is computed).
//
// Note: Figure 7's listing guards the normal rounds with "if j + 1 == N";
// per the surrounding text the condition must select the *last* round, and
// this implementation follows the text.
func HKPRRun(g graph.Graph, seeds []uint32, t float64, N int, eps float64, cfg RunConfig) (*sparse.Vector, Stats) {
	seeds = normalizeSeeds(g, seeds)
	procs := parallel.ResolveProcs(cfg.Procs)
	n := g.NumVertices()
	ws := acquireWorkspace(cfg.Workspace, n)
	if N < 1 {
		N = 1
	}
	var st Stats
	psi := psiTable(t, N)
	eng := newFrontierEngine(g, procs, cfg.Frontier, &st, ws, cfg.Observer)
	r, p, rNext := eng.vector(true), eng.vector(false), eng.vector(true)
	frontier := eng.seed(r, seeds, 1/float64(len(seeds)))
	// Hoisted out of the loop so the steady-state rounds cost no closure
	// allocations: the closures track r/rNext swaps and the per-round scalar
	// through the captured variables, updated before each round. Only the
	// final spread-out round (run at most once) builds its spec inline.
	var (
		tOverJ float64
		jn     int
	)
	spec := roundSpec{
		source: func(_ int, k uint32) (float64, float64) {
			rv := r.get(k)
			p.add(k, rv)
			return 0, tOverJ * rv / float64(eng.degree(k))
		},
	}
	above := func(k uint32, rv float64) bool {
		return rv >= hkThreshold(t, eps, N, psi, eng.degree(k), jn)
	}
	for j := 0; len(frontier) > 0; j++ {
		if cancelled(cfg.Cancel) {
			break // partial vector; see RunConfig.Cancel
		}
		if j+1 >= N {
			// Last round: spread the remaining residual into p directly,
			// accumulating on top of the earlier levels' mass.
			eng.round(frontier, roundSpec{
				scratch:    p,
				accumulate: true,
				self:       true,
				source: func(_ int, k uint32) (float64, float64) {
					rv := r.get(k)
					return rv, rv / float64(eng.degree(k))
				},
			})
			break
		}
		tOverJ = t / float64(j+1)
		spec.scratch = rNext
		eng.round(frontier, spec)
		jn = j + 1
		frontier = eng.advance(rNext, nil, above)
		r, rNext = rNext, r
	}
	out := eng.snapshot(p, math.Exp(-t))
	// Release only on the non-panicking path (see acquireWorkspace); the
	// result was snapshotted out of the workspace first.
	ws.Release(procs)
	return out, st
}
