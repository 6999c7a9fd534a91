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
// mode and can lend the run its scratch (which changes where memory lives,
// never what is computed).
func PRNibbleRun(g graph.Graph, seeds []uint32, alpha, eps float64, rule PushRule, beta float64, cfg RunConfig) (*sparse.Vector, Stats) {
	seeds = normalizeSeeds(g, seeds)
	procs := parallel.ResolveProcs(cfg.Procs)
	n := g.NumVertices()
	ws := acquireWorkspace(cfg.Workspace, n)
	if beta <= 0 || beta > 1 {
		beta = 1
	}
	var st Stats
	pGain, edgeShare, selfKeep := rule.coefficients(alpha)
	eng := newFrontierEngine(g, procs, cfg.Frontier, &st, ws, cfg.Observer)
	p, r, delta := eng.vector(false), eng.vector(false), eng.vector(true)
	// above is the push condition on a residual rv = r[k]. Most touched
	// vertices hold less than eps, the threshold of a degree-1 vertex, and
	// are turned away without a look at the degree.
	above := func(k uint32, rv float64) bool {
		if rv < eps {
			return false
		}
		d := eng.degree(k)
		return d > 0 && rv >= eps*float64(d)
	}
	frontier := eng.seed(r, seeds, 1/float64(len(seeds)))[:0]
	for _, k := range seeds {
		if above(k, r.get(k)) {
			frontier = append(frontier, k)
		}
	}
	// The β-fraction comparator is loop-invariant (it reads r through the
	// captured variable); building it once keeps the per-round ranking free
	// of the closure allocations the generic sort would otherwise force. It
	// reads degrees from the graph: the parallel sort may compare a key in
	// two workers at once, and the engine's degree column is written on
	// first read.
	var betaLess func(a, b uint32) bool
	if beta < 1 {
		betaLess = func(a, b uint32) bool {
			va, vb := eng.vertex(a), eng.vertex(b)
			sa := r.get(a) / float64(g.Degree(va))
			sb := r.get(b) / float64(g.Degree(vb))
			if sa != sb {
				return sa > sb
			}
			return va < vb
		}
	}
	// The spec is loop-invariant (its closure reads r and p through the
	// captured variables), so build it once: a per-round literal costs a
	// heap-escaping closure every synchronous round.
	spec := roundSpec{
		scratch: delta,
		self:    true,
		source: func(_ int, k uint32) (float64, float64) {
			rv := r.get(k)
			p.add(k, pGain*rv)
			// Self-update as a commutative delta: r[k] becomes
			// selfKeep*rv, i.e. changes by (selfKeep-1)*rv.
			return (selfKeep - 1) * rv, edgeShare * rv / float64(eng.degree(k))
		},
	}
	var rest []uint32 // this round's ranked-out vertices (beta < 1 only)
	for len(frontier) > 0 {
		if cancelled(cfg.Cancel) {
			break // partial vector; see RunConfig.Cancel
		}
		if beta < 1 && len(frontier) > 1 {
			var kept ligra.VertexSubset
			kept, rest = topBetaFraction(procs, ligra.FromIDs(frontier), beta, ws, betaLess)
			frontier = kept.IDs()
			// The round may promote the run, which changes what a key is:
			// the ranked-out wait as vertices.
			for i, k := range rest {
				rest[i] = eng.vertex(k)
			}
		}
		eng.round(frontier, spec)
		// Merge the deltas into r; only touched entries change, so the next
		// frontier is a filter over exactly the touched keys.
		frontier = eng.advance(delta, r, above)
		// A ranked-out vertex was not pushed, so it is still above the
		// threshold. The filter found the ones a neighbour's push touched;
		// the others join the frontier here, or nothing would look at them
		// again and the run could end with r[v] >= eps*d(v).
		for _, v := range rest {
			if k, _ := eng.key(v); !eng.touched(delta, k) {
				frontier = append(frontier, k)
			}
		}
		rest = nil
	}
	if prNibbleResidualSink != nil {
		prNibbleResidualSink(eng.snapshot(r, 1))
	}
	out := eng.snapshot(p, 1)
	// Release only on the non-panicking path (see acquireWorkspace); the
	// result was snapshotted out of the workspace first.
	ws.Release(procs)
	return out, st
}

// prNibbleResidualSink, when non-nil, receives a snapshot of the final
// residual vector r of every PR-Nibble push loop. It exists solely for the
// property-based conformance suite, which checks the §3.3 mass-conservation
// invariant ‖p‖₁ + ‖r‖₁ <= 1 + ε — the production path never snapshots r.
var prNibbleResidualSink func(*sparse.Vector)

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
