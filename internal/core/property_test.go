package core

// property_test.go is the property-based conformance suite of the pooled
// result path (ISSUE 4): on seeded random graphs — Erdős–Rényi and planted
// partition (SBM), n <= 512 — it checks, across frontier modes and worker
// counts,
//
//  1. sweep-cut correctness against a brute-force O(N*m) reference: every
//     prefix conductance reported by the parallel sweep equals a from-
//     scratch recomputation via graph.Conductance, and the winning prefix
//     is the argmin;
//  2. pooled/unpooled equivalence: runs through a workspace pool and a
//     result arena return the same vectors and sweeps as fresh allocations
//     (in the sense of requireEquivalentRuns), including when the same arena
//     is recycled run after run;
//  3. PR-Nibble mass conservation (§3.3): ‖p‖₁ + ‖r‖₁ <= 1 + ε at
//     termination, for every frontier mode and procs in {1, 2, 8}.

import (
	"fmt"
	"math"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/rng"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// erdosRenyi builds a seeded G(n, p) graph with p chosen for the given
// expected average degree.
func erdosRenyi(n int, avgDeg float64, seed uint64) *graph.CSR {
	r := rng.New(seed)
	prob := avgDeg / float64(n-1)
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if r.Float64() < prob {
				edges = append(edges, graph.Edge{U: uint32(u), V: uint32(v)})
			}
		}
	}
	return graph.FromEdges(1, n, edges)
}

// propertyGraphs is the suite's graph zoo: ER at three sizes plus two
// planted-partition graphs whose ground-truth communities give the sweeps
// something real to find.
func propertyGraphs(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	return map[string]*graph.CSR{
		"er-32":    erdosRenyi(32, 6, 1),
		"er-128":   erdosRenyi(128, 8, 2),
		"er-512":   erdosRenyi(512, 10, 3),
		"sbm-4x32": gen.SBM(1, []int{32, 32, 32, 32}, 10, 2, 4),
		"sbm-2x64": gen.SBM(1, []int{64, 64}, 12, 1, 5),
	}
}

// firstSeed returns a deterministic non-isolated seed vertex.
func firstSeed(t *testing.T, g *graph.CSR) uint32 {
	t.Helper()
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 0 {
			return uint32(v)
		}
	}
	t.Skip("graph has no edges")
	return 0
}

// requireMapsIdentical asserts two sparse vectors carry the same keys with
// bit-identical float values.
func requireMapsIdentical(t testing.TB, name string, want, got *sparse.Map) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: support size %d != %d", name, want.Len(), got.Len())
	}
	want.ForEach(func(k uint32, v float64) {
		gv := got.Get(k)
		if math.Float64bits(v) != math.Float64bits(gv) {
			t.Fatalf("%s: entry %d: %v (bits %x) != %v (bits %x)", name, k, v, math.Float64bits(v), gv, math.Float64bits(gv))
		}
	})
}

// requireSweepsIdentical asserts two sweep results are exactly equal.
func requireSweepsIdentical(t testing.TB, name string, want, got SweepResult) {
	t.Helper()
	if math.Float64bits(want.Conductance) != math.Float64bits(got.Conductance) ||
		want.Volume != got.Volume || want.Cut != got.Cut {
		t.Fatalf("%s: best (phi=%v vol=%d cut=%d) != (phi=%v vol=%d cut=%d)",
			name, want.Conductance, want.Volume, want.Cut, got.Conductance, got.Volume, got.Cut)
	}
	if len(want.Order) != len(got.Order) || len(want.Cluster) != len(got.Cluster) {
		t.Fatalf("%s: order/cluster lengths differ: %d/%d vs %d/%d",
			name, len(want.Order), len(want.Cluster), len(got.Order), len(got.Cluster))
	}
	for i := range want.Order {
		if want.Order[i] != got.Order[i] {
			t.Fatalf("%s: order[%d] %d != %d", name, i, want.Order[i], got.Order[i])
		}
	}
	for i := range want.PrefixConductance {
		if math.Float64bits(want.PrefixConductance[i]) != math.Float64bits(got.PrefixConductance[i]) {
			t.Fatalf("%s: prefix[%d] %v != %v", name, i, want.PrefixConductance[i], got.PrefixConductance[i])
		}
	}
}

// kernelRun is one execution of a kernel as the equivalence suites see it:
// the returned vector and Stats and, when the kernel is PR-Nibble, its final
// residual vector.
type kernelRun struct {
	vec      *sparse.Map
	st       Stats
	residual *sparse.Map
}

// runKernel executes run with the PR-Nibble residual sink installed.
func runKernel(run func() (*sparse.Map, Stats)) kernelRun {
	var k kernelRun
	prNibbleResidualSink = func(r *sparse.Map) { k.residual = r }
	defer func() { prNibbleResidualSink = nil }()
	k.vec, k.st = run()
	return k
}

// deterministicRun reports whether a run's floating-point accumulation
// order is fixed, so that two executions must agree to the last bit: with
// one worker everything runs in program order, and under FrontierDense every
// round is a pull round, in which each vertex is summed by one writer in
// adjacency order whatever the schedule. Any other configuration takes
// sparse rounds with several workers, whose compare-and-swap accumulation
// adds in schedule order — the paper's fetch-and-add has the same property.
// Ordering sparse rounds is ROADMAP item 1(b) and is not done.
func deterministicRun(cfg RunConfig) bool {
	return cfg.Procs == 1 || cfg.Frontier == FrontierDense
}

// requireEquivalentRuns is the one oracle of the suites that run a kernel
// twice along different paths — pooled and not, heap and .lgz, observed and
// not — and expect the same answer. Stats must always be equal. With exact
// set (see deterministicRun) vectors must be bit-identical. Otherwise the
// two runs are two samples of a schedule-dependent sum and are held to the
// same support and entries within 1e-12 relative. Either way a PR-Nibble run
// that reached its fixed point (eps > 0) is also held to what the algorithm
// promises: mass conservation ‖p‖₁ + ‖r‖₁ = 1 and the exit condition
// r[v] < eps·d(v) on got.
func requireEquivalentRuns(t testing.TB, label string, g graph.Graph, exact bool, eps float64, want, got kernelRun) {
	t.Helper()
	if want.st != got.st {
		t.Fatalf("%s: stats %+v != %+v", label, want.st, got.st)
	}
	if exact {
		requireMapsIdentical(t, label, want.vec, got.vec)
	} else {
		if want.vec.Len() != got.vec.Len() {
			t.Fatalf("%s: support size %d != %d", label, want.vec.Len(), got.vec.Len())
		}
		want.vec.ForEach(func(k uint32, v float64) {
			gv := got.vec.Get(k)
			if gv == 0 || math.Abs(v-gv) > 1e-12*math.Abs(v) {
				t.Fatalf("%s: entry %d: %v vs %v", label, k, v, gv)
			}
		})
	}
	if got.residual == nil || eps <= 0 {
		return
	}
	if mass := got.vec.Sum() + got.residual.Sum(); math.Abs(mass-1) > 1e-9 {
		t.Fatalf("%s: ‖p‖₁ + ‖r‖₁ = %v, want 1", label, mass)
	}
	got.residual.ForEach(func(v uint32, rv float64) {
		if d := g.Degree(v); d > 0 && rv >= eps*float64(d) {
			t.Fatalf("%s: r[%d] = %v at exit, not below eps*d = %v", label, v, rv, eps*float64(d))
		}
	})
}

// requireEquivalentSweeps compares the sweep cuts of two equivalent runs:
// exactly when the vectors are bit-identical, otherwise by the cut's size
// and conductance, since entries an ULP apart may swap places in the order.
func requireEquivalentSweeps(t *testing.T, label string, exact bool, want, got SweepResult) {
	t.Helper()
	if exact {
		requireSweepsIdentical(t, label, want, got)
		return
	}
	if len(want.Order) != len(got.Order) || math.Abs(want.Conductance-got.Conductance) > 1e-9 {
		t.Fatalf("%s: sweep over %d vertices phi=%v, want %d vertices phi=%v",
			label, len(got.Order), got.Conductance, len(want.Order), want.Conductance)
	}
}

// TestPropertySweepMatchesBruteForce checks every prefix conductance the
// parallel sweep reports against an independent O(N*m) recomputation from
// the graph itself, plus the argmin selection and the winner's volume/cut.
func TestPropertySweepMatchesBruteForce(t *testing.T) {
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			vec, _ := PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, RunConfig{Procs: 4})
			if vec.Len() == 0 {
				t.Fatalf("empty diffusion vector")
			}
			res := SweepCutPar(g, vec, 4, nil)
			N := len(res.Order)
			if N == 0 {
				t.Fatalf("empty sweep order")
			}
			best, bestPhi := -1, math.Inf(1)
			for i := 0; i < N; i++ {
				prefix := res.Order[:i+1]
				phi := g.Conductance(prefix)
				if phi != res.PrefixConductance[i] {
					t.Fatalf("prefix %d: sweep says phi=%v, brute force says %v", i, res.PrefixConductance[i], phi)
				}
				if phi < bestPhi {
					best, bestPhi = i, phi
				}
			}
			if bestPhi != res.Conductance {
				t.Fatalf("best conductance %v != brute-force min %v (at prefix %d)", res.Conductance, bestPhi, best)
			}
			if len(res.Cluster) != best+1 {
				t.Fatalf("cluster size %d, brute-force argmin prefix %d", len(res.Cluster), best+1)
			}
			if vol := g.Volume(res.Cluster); vol != res.Volume {
				t.Fatalf("cluster volume %d != brute-force %d", res.Volume, vol)
			}
			if cut := g.Boundary(res.Cluster); cut != res.Cut {
				t.Fatalf("cluster cut %d != brute-force %d", res.Cut, cut)
			}
		})
	}
}

// TestPropertyPooledMatchesUnpooled checks the pooled result path's core
// promise: a run through a workspace pool, a recycled result arena and the
// arena-backed sweep is equivalent to one on fresh allocations, for every
// algorithm that snapshots a vector, across frontier modes and worker
// counts, and across repeated runs through the same recycled arena.
func TestPropertyPooledMatchesUnpooled(t *testing.T) {
	const prEps = 1e-6
	algos := map[string]func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats){
		"prnibble": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return PRNibbleRun(g, []uint32{seed}, 0.05, prEps, OptimizedRule, 1, cfg)
		},
		"nibble": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return NibbleRun(g, []uint32{seed}, 1e-7, 15, cfg)
		},
		"hkpr": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return HKPRRun(g, []uint32{seed}, 10, 15, 1e-6, cfg)
		},
		"randhk": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
			return RandHKPRRun(g, []uint32{seed}, 10, 10, 2000, 42, cfg)
		},
	}
	modes := []FrontierMode{FrontierAuto, FrontierSparse, FrontierDense}
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			pool := workspace.NewPool(g.NumVertices())
			arena := pool.AcquireResult()
			defer arena.Release()
			for algoName, run := range algos {
				for _, mode := range modes {
					for _, procs := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s/p%d", algoName, mode, procs)
						cfg := RunConfig{Procs: procs, Frontier: mode}
						// rand-HK-PR aggregates by sorting, in a fixed order.
						exact := deterministicRun(cfg) || algoName == "randhk"
						want := runKernel(func() (*sparse.Map, Stats) { return run(g, seed, cfg) })
						wantSweep := SweepCutPar(g, want.vec, procs, nil)
						// Two pooled runs through the same arena: the second
						// recycles state the first left behind, which is
						// exactly the serving steady state.
						cfg.Workspace, cfg.Result = pool, arena
						for round := 0; round < 2; round++ {
							arena.Reset()
							got := runKernel(func() (*sparse.Map, Stats) { return run(g, seed, cfg) })
							requireEquivalentRuns(t, label, g, exact, prEps, want, got)
							gotSweep := SweepCutPar(g, got.vec, procs, arena)
							requireEquivalentSweeps(t, label, exact, wantSweep, gotSweep)
						}
					}
				}
			}
		})
	}
}

// TestPropertyPRNibbleMassConservation pins the §3.3 invariant: at
// termination the mass vector p and residual r of PR-Nibble satisfy
// ‖p‖₁ + ‖r‖₁ <= 1 + ε (the push rule only moves or removes mass, never
// creates it), for every frontier mode and worker count, pooled and not.
func TestPropertyPRNibbleMassConservation(t *testing.T) {
	const eps = 1e-9
	modes := []FrontierMode{FrontierAuto, FrontierSparse, FrontierDense}
	procsList := []int{1, 2, 8}
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			pool := workspace.NewPool(g.NumVertices())
			for _, mode := range modes {
				for _, procs := range procsList {
					for _, pooled := range []bool{false, true} {
						var residual *sparse.Map
						prNibbleResidualSink = func(r *sparse.Map) { residual = r }
						cfg := RunConfig{Procs: procs, Frontier: mode}
						if pooled {
							cfg.Workspace = pool
						}
						p, _ := PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, cfg)
						prNibbleResidualSink = nil
						if residual == nil {
							t.Fatalf("mode %v procs %d: residual sink never called", mode, procs)
						}
						pMass, rMass := p.Sum(), residual.Sum()
						if total := pMass + rMass; total > 1+eps {
							t.Fatalf("mode %v procs %d pooled=%t: ‖p‖+‖r‖ = %v + %v = %v > 1+ε",
								mode, procs, pooled, pMass, rMass, total)
						}
						if pMass <= 0 {
							t.Fatalf("mode %v procs %d: no mass settled (‖p‖ = %v)", mode, procs, pMass)
						}
					}
				}
			}
		})
	}
}
