package core

import (
	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// prnibble_par.go implements the parallel PR-Nibble of §3.3 (Figures 5–6):
// every iteration pushes from all vertices with r(v) >= eps*d(v)
// simultaneously, reading residuals as of the start of the iteration
// (synchronous double buffering — the paper's r/r' pair). Theorem 3: the
// total work remains O(1/(eps*alpha)) with either update rule, even though
// the parallel schedule performs somewhat more pushes than the sequential
// one (Table 1 measures the inflation at <= ~1.6x).
//
// Residual updates are accumulated in a fresh per-iteration *delta* table
// rather than a copy of r: the self-update is expressed as a negative
// delta, making every update a commutative addition, and the merge
// r += delta touches only the entries written this iteration. This realizes
// the prose semantics of §3.3 ("r' is set to r at the beginning of an
// iteration") without copying r, preserving both mass and the per-iteration
// locality bound. See DESIGN.md §1 note 1.
//
// The iteration skeleton (volume bound, delta reset, share hoisting, edge
// push, delta merge and threshold filter in one pass) lives in the shared
// frontier engine
// (engine.go), which also auto-selects the sparse or dense edge traversal
// and vector representation per FrontierMode.

// PRNibbleRun runs parallel PR-Nibble from a seed set (per the paper's
// footnote 5, larger seed sets increase the frontier sizes at each
// iteration, and with them the available parallelism — exactly the regime
// where the dense frontier representation pays off). beta in (0, 1) selects
// the β-fraction variant from the end of §3.3: each iteration pushes only
// the top β-fraction of above-threshold vertices by r(v)/d(v) and carries
// the rest into the next iteration's frontier; any other beta pushes all of
// them, the Figure 5/6 algorithm. cfg sets the worker count and frontier
// mode and can lend the run its graph-sized scratch and its result map
// (which changes where memory lives, never what is computed).
func PRNibbleRun(g graph.Graph, seeds []uint32, alpha, eps float64, rule PushRule, beta float64, cfg RunConfig) (*sparse.Map, Stats) {
	seeds = normalizeSeeds(g, seeds)
	procs := parallel.ResolveProcs(cfg.Procs)
	n := g.NumVertices()
	ws := acquireWorkspace(cfg.Workspace, n)
	if beta <= 0 || beta > 1 {
		beta = 1
	}
	var st Stats
	pGain, edgeShare, selfKeep := rule.coefficients(alpha)
	p := newVec(n, cfg.Frontier, 16, ws)
	r := newVec(n, cfg.Frontier, len(seeds), ws)
	w := 1 / float64(len(seeds))
	for _, s := range seeds {
		r.Add(s, w)
	}
	// above is the push condition on a residual rv = r[v]. Most touched
	// vertices hold less than eps, the threshold of a degree-1 vertex, and
	// are turned away without a look at the graph.
	above := func(v uint32, rv float64) bool {
		if rv < eps {
			return false
		}
		d := g.Degree(v)
		return d > 0 && rv >= eps*float64(d)
	}
	frontier := ligra.VertexFilter(procs, ligra.FromIDs(seeds), func(v uint32) bool { return above(v, r.Get(v)) })
	// The β-fraction comparator is loop-invariant (it reads r through the
	// captured variable); building it once keeps the per-round ranking free
	// of the closure allocations the generic sort would otherwise force.
	var betaLess func(a, b uint32) bool
	if beta < 1 {
		betaLess = func(a, b uint32) bool {
			sa := r.Get(a) / float64(g.Degree(a))
			sb := r.Get(b) / float64(g.Degree(b))
			if sa != sb {
				return sa > sb
			}
			return a < b
		}
	}
	delta := newVec(n, cfg.Frontier, 16, ws)
	eng := newFrontierEngine(g, procs, cfg.Frontier, &st, ws, cfg.Observer)
	// The spec is loop-invariant (its closures read r/p/delta through the
	// captured variables), so build it once: a per-round literal costs two
	// heap-escaping closures every synchronous round.
	spec := roundSpec{
		scratch: delta,
		before:  func(size int, _ uint64) { p.reserve(size) },
		source: func(_ int, v uint32) float64 {
			rv := r.Get(v)
			p.AddOwned(v, pGain*rv)
			// Self-update as a commutative delta: r[v] becomes
			// selfKeep*rv, i.e. changes by (selfKeep-1)*rv.
			delta.AddOwned(v, (selfKeep-1)*rv)
			return edgeShare * rv / float64(g.Degree(v))
		},
	}
	var rest []uint32 // this round's ranked-out vertices (beta < 1 only)
	for !frontier.IsEmpty() {
		if cancelled(cfg.Cancel) {
			break // partial vector; see RunConfig.Cancel
		}
		if beta < 1 && frontier.Size() > 1 {
			frontier, rest = topBetaFraction(procs, frontier, beta, ws, betaLess)
		}
		eng.round(frontier, spec)
		// Merge the deltas into r; only touched entries change, so the next
		// frontier is a filter over exactly the touched keys.
		frontier = eng.advance(delta, r, above)
		if len(rest) > 0 {
			// A ranked-out vertex was not pushed, so it is still above the
			// threshold. The filter found the ones a neighbour's push
			// touched; the others join the frontier here, or nothing would
			// look at them again and the run could end with r[v] >= eps*d(v).
			ids := frontier.IDs()
			for _, v := range rest {
				if !delta.Has(v) {
					ids = append(ids, v)
				}
			}
			frontier, rest = ligra.FromIDs(ids), nil
		}
	}
	if prNibbleResidualSink != nil {
		prNibbleResidualSink(vecFromTable(r))
	}
	out := vecFromTable(p)
	// Release only on the non-panicking path (see acquireWorkspace); the
	// result was snapshotted out of the workspace first.
	ws.Release(procs)
	return out, st
}

// prNibbleResidualSink, when non-nil, receives a snapshot of the final
// residual vector r of every PR-Nibble push loop. It exists solely for the
// property-based conformance suite, which checks the §3.3 mass-conservation
// invariant ‖p‖₁ + ‖r‖₁ <= 1 + ε — the production path never snapshots r.
var prNibbleResidualSink func(*sparse.Map)

// topBetaFraction splits the frontier into the ceil(beta*|frontier|)
// vertices ranked best by less — largest r(v)/d(v) first, ties toward the
// smaller vertex ID so the schedule is deterministic — and the ranked-out
// rest, implementing the β-fraction work/parallelism trade-off of §3.3. The
// ranking buffer and the merge scratch are borrowed from the workspace and
// the comparator is built once per run, so a steady-state β-fraction round
// allocates nothing; both halves alias the buffer, which the round's filter
// leaves alone (it builds the next frontier in separate storage) and the
// next ranking overwrites.
func topBetaFraction(procs int, frontier ligra.VertexSubset, beta float64, ws *workspace.Workspace, less func(a, b uint32) bool) (kept ligra.VertexSubset, rest []uint32) {
	src := frontier.IDs()
	keep := int(beta*float64(len(src)) + 0.999999)
	if keep < 1 {
		keep = 1
	}
	if keep >= len(src) {
		return frontier, nil
	}
	ids := append(ws.SortIDs(), src...)
	var scratch []uint32
	if need := parallel.SortScratchLen(procs, len(ids)); need > 0 {
		scratch = ws.SortScratch(need)
	}
	parallel.SortScratch(procs, ids, scratch, less)
	return ligra.FromIDs(ids[:keep]), ids[keep:]
}
