package core

// beta_alloc_test.go pins the β-fraction ranking's allocation contract:
// topBetaFraction was the last per-call sweep allocation (the frontier-ID
// copy plus parallel.Sort's merge scratch, DESIGN §7) — both now come from
// the workspace, so a warm workspace ranks for free.

import (
	"fmt"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/ligra"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// TestTopBetaFractionZeroAllocs checks the direct contract: with a warm
// workspace and the sequential sort path, ranking allocates nothing per
// call. (The parallel merge path spawns goroutines by design; its scratch
// buffer — the part this test owns — comes from the same workspace either
// way.)
func TestTopBetaFractionZeroAllocs(t *testing.T) {
	g := gen.Caveman(16, 12)
	n := g.NumVertices()
	ws := workspace.New(n)
	r := sparse.NewDense(n)
	ids := make([]uint32, n)
	for v := 0; v < n; v++ {
		ids[v] = uint32(v)
		r.Set(uint32(v), float64(v%13)+0.5)
	}
	frontier := ligra.FromIDs(ids)
	less := func(a, b uint32) bool {
		sa := r.Get(a) / float64(g.Degree(a))
		sb := r.Get(b) / float64(g.Degree(b))
		if sa != sb {
			return sa > sb
		}
		return a < b
	}
	topBetaFraction(1, frontier, 0.5, ws, less) // warm the sort buffers
	allocs := testing.AllocsPerRun(50, func() {
		sub, rest := topBetaFraction(1, frontier, 0.5, ws, less)
		if sub.Size() != n/2 || sub.Size()+len(rest) != n {
			t.Fatalf("kept %d and ranked out %d of %d", sub.Size(), len(rest), n)
		}
	})
	if allocs != 0 {
		t.Fatalf("β-fraction ranking allocates %.1f objects/op with a warm workspace, want 0", allocs)
	}
}

// TestBetaRunPooledAllocBudget checks the end-to-end form: a pooled
// steady-state β-fraction PR-Nibble run stays within the same small
// per-round constant budget as the full-frontier path — the ranking pass no
// longer contributes per-call copies.
func TestBetaRunPooledAllocBudget(t *testing.T) {
	g := gen.Caveman(12, 8)
	pool := workspace.NewPool(g.NumVertices())
	rec := &recordingObserver{}
	cfg := RunConfig{Procs: 1, Frontier: FrontierDense, Workspace: pool, Observer: rec}
	run := func() {
		PRNibbleRun(g, []uint32{0}, 0.05, 1e-6, OptimizedRule, 0.5, cfg)
	}
	run() // warm the pool (and count rounds via the observer)
	rounds := len(rec.events)
	cfg.Observer = nil
	allocs := testing.AllocsPerRun(20, run)
	if budget := float64(24*rounds + 64); allocs > budget {
		t.Fatalf("pooled β-fraction run allocates %.1f objects/op over %d rounds (budget %.0f)",
			allocs, rounds, budget)
	}
}

// TestBetaWorkspaceMatchesUnpooled guards the refactor's semantics: routing
// the ranking buffers through the workspace must not change which vertices
// survive, so pooled and unpooled β runs stay equivalent — bit-identical
// wherever the accumulation order is fixed (requireEquivalentRuns). The same
// oracle holds every β run to the exit bound r[v] < eps·d(v): a ranked-out
// vertex is carried into the next round, not dropped.
func TestBetaWorkspaceMatchesUnpooled(t *testing.T) {
	g := gen.CommunityGraph(1, 600, 10, 5, 20, 60, 2.5, 7)
	pool := workspace.NewPool(g.NumVertices())
	for _, beta := range []float64{0.3, 0.7} {
		for _, mode := range frontierModes() {
			for _, procs := range []int{1, 2} {
				cfg := RunConfig{Procs: procs, Frontier: mode}
				run := func() (*sparse.Map, Stats) {
					return PRNibbleRun(g, []uint32{0, 5}, 0.05, 1e-5, OptimizedRule, beta, cfg)
				}
				base := runKernel(run)
				cfg.Workspace = pool
				pooled := runKernel(run)
				requireEquivalentRuns(t, fmt.Sprintf("beta=%v/%v/p%d", beta, mode, procs), g, deterministicRun(cfg), 1e-5, base, pooled)
			}
		}
	}
}
