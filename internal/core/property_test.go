package core

// property_test.go is the property-based conformance suite of the pooled
// result path (ISSUE 4): on seeded random graphs — Erdős–Rényi and planted
// partition (SBM), n <= 512 — it checks, across frontier modes and worker
// counts,
//
//  1. sweep-cut correctness against a brute-force O(N*m) reference: every
//     prefix conductance the sweep reports, at one worker (the sequential
//     loop) and at four (the fetch-and-add pass), equals a from-scratch
//     recomputation via graph.Conductance, the winning prefix is the
//     argmin, and the result does not depend on the order the vector lists
//     its entries in;
//  2. pooled/unpooled equivalence: runs through a workspace pool return the
//     same vectors and sweeps as fresh allocations (in the sense of
//     requireEquivalentRuns), including when the same pool is recycled run
//     after run;
//  3. PR-Nibble mass conservation (§3.3): ‖p‖₁ + ‖r‖₁ <= 1 + ε at
//     termination, for every frontier mode and procs in {1, 2, 8}.

import (
	"fmt"
	"math"
	"slices"
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

// requireMapsIdentical asserts two vectors carry the same set of entries,
// bit for bit, whatever order each lists them in.
func requireMapsIdentical(t testing.TB, name string, want, got *sparse.Vector) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: support size %d != %d", name, want.Len(), got.Len())
	}
	gm := entries(got)
	want.ForEach(func(k uint32, v float64) {
		gv, ok := gm[k]
		if !ok || math.Float64bits(v) != math.Float64bits(gv) {
			t.Fatalf("%s: entry %d: %v (bits %x) != %v (bits %x, present %t)", name, k, v, math.Float64bits(v), gv, math.Float64bits(gv), ok)
		}
	})
}

// entries returns vec's entries as a map: the one way the tests look a
// vector's entries up.
func entries(vec *sparse.Vector) map[uint32]float64 {
	m := make(map[uint32]float64, vec.Len())
	vec.ForEach(func(k uint32, x float64) { m[k] = x })
	return m
}

// vecSum returns the sum of vec's values (its l1 norm when they are
// positive).
func vecSum(vec *sparse.Vector) float64 {
	s := 0.0
	vec.ForEach(func(_ uint32, x float64) { s += x })
	return s
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
	vec      *sparse.Vector
	st       Stats
	residual *sparse.Vector
}

// runKernel executes run with the PR-Nibble residual sink installed.
func runKernel(run func() (*sparse.Vector, Stats)) kernelRun {
	var k kernelRun
	prNibbleResidualSink = func(r *sparse.Vector) { k.residual = r }
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
		gm := entries(got.vec)
		want.vec.ForEach(func(k uint32, v float64) {
			gv := gm[k]
			if gv == 0 || math.Abs(v-gv) > 1e-12*math.Abs(v) {
				t.Fatalf("%s: entry %d: %v vs %v", label, k, v, gv)
			}
		})
	}
	if got.residual == nil || eps <= 0 {
		return
	}
	if mass := vecSum(got.vec) + vecSum(got.residual); math.Abs(mass-1) > 1e-9 {
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
// sweep reports, at one worker and at four, against an independent O(N*m)
// recomputation from the graph itself, plus the argmin selection and the
// winner's volume/cut.
func TestPropertySweepMatchesBruteForce(t *testing.T) {
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			vec, _ := PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, RunConfig{Procs: 4})
			if vec.Len() == 0 {
				t.Fatalf("empty diffusion vector")
			}
			for _, procs := range []int{1, 4} {
				requireSweepMatchesBruteForce(t, fmt.Sprintf("procs %d", procs), g, SweepCut(g, vec, procs))
			}
		})
	}
}

// requireSweepMatchesBruteForce holds a sweep to the definitions: the
// conductance of every prefix of its order recomputed from the graph, the
// first prefix of least conductance as the cluster, and the cluster's volume
// and cut.
func requireSweepMatchesBruteForce(t *testing.T, name string, g graph.Graph, res SweepResult) {
	t.Helper()
	N := len(res.Order)
	if N == 0 {
		t.Fatalf("%s: empty sweep order", name)
	}
	best, bestPhi := -1, math.Inf(1)
	for i := 0; i < N; i++ {
		phi := g.Conductance(res.Order[:i+1])
		if phi != res.PrefixConductance[i] {
			t.Fatalf("%s: prefix %d: sweep says phi=%v, brute force says %v", name, i, res.PrefixConductance[i], phi)
		}
		if phi < bestPhi {
			best, bestPhi = i, phi
		}
	}
	if bestPhi != res.Conductance {
		t.Fatalf("%s: best conductance %v != brute-force min %v (at prefix %d)", name, res.Conductance, bestPhi, best)
	}
	if len(res.Cluster) != best+1 {
		t.Fatalf("%s: cluster size %d, brute-force argmin prefix %d", name, len(res.Cluster), best+1)
	}
	if vol := g.Volume(res.Cluster); vol != res.Volume {
		t.Fatalf("%s: cluster volume %d != brute-force %d", name, res.Volume, vol)
	}
	if cut := g.Boundary(res.Cluster); cut != res.Cut {
		t.Fatalf("%s: cluster cut %d != brute-force %d", name, res.Cut, cut)
	}
}

// relisted returns vec's entries listed in the order perm gives the
// positions of vec's own listing, through the one constructor a Vector has:
// an index's column lists its entries in slot order, and one goroutine
// claims slots in creation order.
func relisted(vec *sparse.Vector, perm []int) *sparse.Vector {
	ids, vals := vec.Entries()
	idx := sparse.NewIndex(len(ids))
	col := idx.Col(0)
	for _, i := range perm {
		col[idx.Slot(ids[i])] = vals[i]
	}
	return sparse.Snapshot(idx.View(col, nil), 1)
}

// listing returns the IDs of vec in the order it lists them.
func listing(vec *sparse.Vector) []uint32 {
	var ids []uint32
	vec.ForEach(func(k uint32, _ float64) { ids = append(ids, k) })
	return ids
}

// TestPropertySweepIgnoresEntryOrder feeds the sweep the same entries of a
// PR-Nibble, a Nibble and an HK-PR vector in three listing orders — the
// kernel's own, reversed and shuffled — at one worker and at four, and
// requires identical results. A kernel's vector lists its entries in table
// order, so nothing else varies the order the sweep reads them in.
func TestPropertySweepIgnoresEntryOrder(t *testing.T) {
	kernels := map[string]func(g *graph.CSR, seed uint32) (*sparse.Vector, Stats){
		"prnibble": func(g *graph.CSR, seed uint32) (*sparse.Vector, Stats) {
			return PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, RunConfig{Procs: 1})
		},
		"nibble": func(g *graph.CSR, seed uint32) (*sparse.Vector, Stats) {
			return NibbleRun(g, []uint32{seed}, 1e-7, 15, RunConfig{Procs: 1})
		},
		"hkpr": func(g *graph.CSR, seed uint32) (*sparse.Vector, Stats) {
			return HKPRRun(g, []uint32{seed}, 10, 15, 1e-6, RunConfig{Procs: 1})
		},
	}
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			r := rng.New(7)
			for kname, run := range kernels {
				vec, _ := run(g, seed)
				n := vec.Len()
				if n < 2 {
					t.Fatalf("%s: support of %d entries has one order", kname, n)
				}
				reversed, shuffled := make([]int, n), make([]int, n)
				for i := range reversed {
					reversed[i], shuffled[i] = n-1-i, i
				}
				for i := n - 1; i > 0; i-- {
					j := r.Intn(i + 1)
					shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
				}
				base := listing(vec)
				for oname, perm := range map[string][]int{"reversed": reversed, "shuffled": shuffled} {
					other := relisted(vec, perm)
					requireMapsIdentical(t, kname+"/"+oname, vec, other)
					if slices.Equal(base, listing(other)) {
						t.Fatalf("%s/%s: the relisted vector lists its entries in the original order", kname, oname)
					}
					for _, procs := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s/p%d", kname, oname, procs)
						requireSweepsIdentical(t, label, SweepCut(g, vec, procs), SweepCut(g, other, procs))
					}
				}
			}
		})
	}
}

// TestPropertyPooledMatchesUnpooled checks the pooled path's core promise: a
// run through a workspace pool, and its sweep, is equivalent to one on fresh
// allocations, for every algorithm that snapshots a vector, across frontier
// modes and worker counts, and across repeated runs through the same
// recycled pool.
func TestPropertyPooledMatchesUnpooled(t *testing.T) {
	const prEps = 1e-6
	algos := map[string]func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Vector, Stats){
		"prnibble": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return PRNibbleRun(g, []uint32{seed}, 0.05, prEps, OptimizedRule, 1, cfg)
		},
		"nibble": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return NibbleRun(g, []uint32{seed}, 1e-7, 15, cfg)
		},
		"hkpr": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return HKPRRun(g, []uint32{seed}, 10, 15, 1e-6, cfg)
		},
		"randhk": func(g *graph.CSR, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return RandHKPRRun(g, []uint32{seed}, 10, 10, 2000, 42, cfg)
		},
	}
	modes := []FrontierMode{FrontierAuto, FrontierSparse, FrontierDense}
	for name, g := range propertyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			seed := firstSeed(t, g)
			pool := workspace.NewPool(g.NumVertices())
			for algoName, run := range algos {
				for _, mode := range modes {
					for _, procs := range []int{1, 4} {
						label := fmt.Sprintf("%s/%s/p%d", algoName, mode, procs)
						cfg := RunConfig{Procs: procs, Frontier: mode}
						// rand-HK-PR aggregates by sorting, in a fixed order.
						exact := deterministicRun(cfg) || algoName == "randhk"
						want := runKernel(func() (*sparse.Vector, Stats) { return run(g, seed, cfg) })
						wantSweep := SweepCut(g, want.vec, procs)
						// Two pooled runs through the same pool: the second
						// recycles state the first left behind, which is
						// exactly the serving steady state.
						cfg.Workspace = pool
						for round := 0; round < 2; round++ {
							got := runKernel(func() (*sparse.Vector, Stats) { return run(g, seed, cfg) })
							requireEquivalentRuns(t, label, g, exact, prEps, want, got)
							gotSweep := SweepCut(g, got.vec, procs)
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
						var residual *sparse.Vector
						prNibbleResidualSink = func(r *sparse.Vector) { residual = r }
						cfg := RunConfig{Procs: procs, Frontier: mode}
						if pooled {
							cfg.Workspace = pool
						}
						p, _ := PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, cfg)
						prNibbleResidualSink = nil
						if residual == nil {
							t.Fatalf("mode %v procs %d: residual sink never called", mode, procs)
						}
						pMass, rMass := vecSum(p), vecSum(residual)
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
