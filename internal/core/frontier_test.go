package core

// frontier_test.go is the cross-mode determinism suite for the adaptive
// frontier engine: sparse, dense, and auto frontier modes must return
// identical clusters and identical Stats for PR-Nibble, HK-PR, and the
// evolving set process, at every worker count. The modes differ only in
// representation (ID-list + hash table vs bitmap + flat array), so the same
// set of pushes runs with the same per-push values in every configuration;
// these tests pin that contract down on the fixture graphs. (Accumulation
// order does differ across modes and schedules, so residual sums can in
// principle move by an ULP; like the existing par-vs-seq suites, the
// fixtures keep thresholds far from such boundaries, which is why exact
// Stats equality is assertable here. The evolving set process works on
// exact integers and is order-independent unconditionally.)

import (
	"fmt"
	"math"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

func frontierModes() []FrontierMode {
	return []FrontierMode{FrontierSparse, FrontierDense, FrontierAuto}
}

func frontierProcs() []int { return []int{1, 2, 8} }

// frontierFixtures returns graphs spanning both traversal regimes: the
// caveman and community graphs keep frontiers small (sparse regime), while
// the dense barbell and the multi-seed runs below push |F| + vol(F) past
// the (n + 2m)/20 threshold so auto actually switches.
func frontierFixtures() map[string]*graph.CSR {
	return map[string]*graph.CSR{
		"caveman":   gen.Caveman(12, 8),
		"barbell":   gen.Barbell(20),
		"community": gen.CommunityGraph(1, 5000, 12, 6, 50, 200, 2.5, 23),
	}
}

// clusterOf sweeps a diffusion vector into a sorted cluster.
func clusterOf(t *testing.T, g *graph.CSR, vec *sparse.Vector) ([]uint32, float64) {
	t.Helper()
	if vec.Len() == 0 {
		return nil, 1
	}
	res := SweepCut(g, vec, 0)
	return sortedU32(res.Cluster), res.Conductance
}

func sortedU32(s []uint32) []uint32 {
	out := append([]uint32(nil), s...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func sameCluster(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestPRNibbleFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		// A multi-vertex seed set (footnote 5) inflates the frontiers into
		// the dense regime quickly.
		seeds := []uint32{0, 1, 2, 3, 4, 5, 6, 7}
		base, baseSt := PRNibbleRun(g, seeds, 0.02, 1e-6, OptimizedRule, 1, RunConfig{Procs: 1, Frontier: FrontierSparse})
		baseCluster, basePhi := clusterOf(t, g, base)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				vec, st := PRNibbleRun(g, seeds, 0.02, 1e-6, OptimizedRule, 1, RunConfig{Procs: p, Frontier: mode})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				cluster, phi := clusterOf(t, g, vec)
				if !sameCluster(cluster, baseCluster) {
					t.Fatalf("%s mode=%v p=%d: cluster %v, want %v", name, mode, p, cluster, baseCluster)
				}
				if math.Abs(phi-basePhi) > 1e-12 {
					t.Fatalf("%s mode=%v p=%d: conductance %v, want %v", name, mode, p, phi, basePhi)
				}
				if ok, why := vectorsClose(base, vec, 1e-9); !ok {
					t.Fatalf("%s mode=%v p=%d: vectors differ: %s", name, mode, p, why)
				}
			}
		}
	}
}

func TestHKPRFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		seeds := []uint32{0, 1, 2, 3}
		base, baseSt := HKPRRun(g, seeds, 4, 15, 1e-6, RunConfig{Procs: 1, Frontier: FrontierSparse})
		baseCluster, basePhi := clusterOf(t, g, base)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				vec, st := HKPRRun(g, seeds, 4, 15, 1e-6, RunConfig{Procs: p, Frontier: mode})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				cluster, phi := clusterOf(t, g, vec)
				if !sameCluster(cluster, baseCluster) {
					t.Fatalf("%s mode=%v p=%d: cluster %v, want %v", name, mode, p, cluster, baseCluster)
				}
				if math.Abs(phi-basePhi) > 1e-12 {
					t.Fatalf("%s mode=%v p=%d: conductance %v, want %v", name, mode, p, phi, basePhi)
				}
			}
		}
	}
}

func TestEvolvingSetFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		base, baseSt := EvolvingSetPar(g, 0, EvolvingSetOptions{
			MaxIter: 40, Seed: 11, Procs: 1, Frontier: FrontierSparse,
		})
		baseSet := sortedU32(base.Set)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				res, st := EvolvingSetPar(g, 0, EvolvingSetOptions{
					MaxIter: 40, Seed: 11, Procs: p, Frontier: mode,
				})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				if !sameCluster(sortedU32(res.Set), baseSet) {
					t.Fatalf("%s mode=%v p=%d: set %v, want %v", name, mode, p, res.Set, base.Set)
				}
				if res.Conductance != base.Conductance || res.Volume != base.Volume || res.Cut != base.Cut {
					t.Fatalf("%s mode=%v p=%d: result %+v, want %+v", name, mode, p, res, base)
				}
			}
		}
	}
}

func TestNibbleFrontierModeDeterminism(t *testing.T) {
	for name, g := range frontierFixtures() {
		seeds := []uint32{0, 1, 2, 3, 4, 5}
		base, baseSt := NibbleRun(g, seeds, 1e-5, 12, RunConfig{Procs: 1, Frontier: FrontierSparse})
		baseCluster, _ := clusterOf(t, g, base)
		for _, mode := range frontierModes() {
			for _, p := range frontierProcs() {
				vec, st := NibbleRun(g, seeds, 1e-5, 12, RunConfig{Procs: p, Frontier: mode})
				if st != baseSt {
					t.Fatalf("%s mode=%v p=%d: stats %+v, want %+v", name, mode, p, st, baseSt)
				}
				cluster, _ := clusterOf(t, g, vec)
				if !sameCluster(cluster, baseCluster) {
					t.Fatalf("%s mode=%v p=%d: cluster differs", name, mode, p)
				}
			}
		}
	}
}

// TestDenseModeForcesDenseStructures double-checks the dense machinery is
// actually exercised: in FrontierDense mode every frontier round must take
// the bitmap path (the engine's decision is pinned), and the vectors start
// as flat arrays. A barbell seed whose clique frontier has volume near 2m
// also crosses the auto threshold on its first round.
func TestDenseModeForcesDenseStructures(t *testing.T) {
	g := gen.Barbell(20)
	ws := workspace.New(g.NumVertices())
	eng := newFrontierEngine(g, 2, FrontierDense, &Stats{}, ws, nil)
	if !eng.useDense(1, 1) {
		t.Fatal("FrontierDense engine chose the sparse path")
	}
	if eng2 := newFrontierEngine(g, 2, FrontierSparse, &Stats{}, ws, nil); eng2.useDense(1<<20, 1<<40) {
		t.Fatal("FrontierSparse engine chose the dense path")
	}
	v := newVec(g.NumVertices(), FrontierDense, 4, ws)
	if _, ok := v.Table.(*sparse.Dense); !ok {
		t.Fatalf("FrontierDense vec backed by %T, want *sparse.Dense", v.Table)
	}
}

// TestVecPromotion pins the hash -> dense promotion: an auto-mode vector
// promotes (sticky, preserving entries) once its bound crosses
// n/workspace.PromoteFrac, and a sparse-mode vector never does.
func TestVecPromotion(t *testing.T) {
	const n = 1024
	v := newVec(n, FrontierAuto, 4, workspace.New(n))
	v.Add(7, 1.5)
	v.Add(9, 2.5)
	if _, ok := v.Table.(*sparse.ConcurrentMap); !ok {
		t.Fatalf("auto vec should start as a hash table, got %T", v.Table)
	}
	v.reserve(n / workspace.PromoteFrac / 2)
	if _, ok := v.Table.(*sparse.ConcurrentMap); !ok {
		t.Fatalf("small reserve must not promote, got %T", v.Table)
	}
	v.reserve(n/workspace.PromoteFrac + 1)
	if _, ok := v.Table.(*sparse.Dense); !ok {
		t.Fatalf("crossing the bound must promote, got %T", v.Table)
	}
	if v.Get(7) != 1.5 || v.Get(9) != 2.5 || v.Len() != 2 {
		t.Fatalf("promotion lost entries: %v %v len=%d", v.Get(7), v.Get(9), v.Len())
	}
	// Reset with a large bound promotes too, but starts empty.
	v2 := newVec(n, FrontierAuto, 4, workspace.New(n))
	v2.Add(3, 1)
	v2.reset(2, n)
	if _, ok := v2.Table.(*sparse.Dense); !ok {
		t.Fatalf("reset past the bound must promote, got %T", v2.Table)
	}
	if v2.Len() != 0 || v2.Get(3) != 0 {
		t.Fatalf("reset-promotion must clear: len=%d", v2.Len())
	}
	// Sparse mode never promotes.
	vs := newVec(n, FrontierSparse, 4, workspace.New(n))
	vs.reset(2, 4*n)
	if _, ok := vs.Table.(*sparse.ConcurrentMap); !ok {
		t.Fatalf("sparse-mode vec promoted to %T", vs.Table)
	}
}

func TestParseFrontierMode(t *testing.T) {
	for s, want := range map[string]FrontierMode{
		"": FrontierAuto, "auto": FrontierAuto,
		"sparse": FrontierSparse, "dense": FrontierDense,
	} {
		got, err := ParseFrontierMode(s)
		if err != nil || got != want {
			t.Fatalf("ParseFrontierMode(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String() roundtrip: %q -> %q", s, got.String())
		}
	}
	if _, err := ParseFrontierMode("bitmap"); err == nil {
		t.Fatal("ParseFrontierMode accepted an unknown mode")
	}
}

// BenchmarkFrontierModeCrossover is the evidence behind
// ligra.DenseThresholdFrac: one PR-Nibble-shaped engine round (reset, vertex
// phase, edge phase, merge and filter) over a frontier whose volume is
// a given fraction of 2m, run as a sparse push and as a dense pull, both over
// flat Dense vectors — the choice auto mode faces once its vectors have
// promoted. The frontier is a BFS ball, the shape a diffusion's frontier
// has. The pull's cost is flat in the fraction and the push's is linear, so
// the crossover is where the two columns meet; see DESIGN.md §4 for the
// committed table.
func BenchmarkFrontierModeCrossover(b *testing.B) {
	g := gen.CommunityGraph(0, 60_000, 17, 6, 8, 2000, 2.5, 0xA1) // the soc-LJ stand-in at benchmark scale
	n := g.NumVertices()
	root, _ := g.LargestComponent()
	order := []uint32{root}
	seen := make([]bool, n)
	seen[root] = true
	for i := 0; i < len(order); i++ {
		for _, w := range g.Neighbors(order[i]) {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	for _, den := range []int{40, 20, 12, 8, 6, 5, 4, 3, 2} {
		var vol uint64
		size := 0
		for size < len(order) && vol < g.TotalVolume()/uint64(den) {
			vol += uint64(g.Degree(order[size]))
			size++
		}
		frontier := ligra.FromIDs(order[:size])
		for _, procs := range []int{1, 0} {
			for _, mode := range []FrontierMode{FrontierSparse, FrontierDense} {
				name := "push"
				if mode == FrontierDense {
					name = "pull"
				}
				b.Run(fmt.Sprintf("vol=1_%d/procs=%d/%s", den, parallel.ResolveProcs(procs), name), func(b *testing.B) {
					ws := workspace.New(n)
					var st Stats
					r := newVec(n, FrontierDense, 0, ws)
					delta := newVec(n, FrontierDense, 0, ws)
					eng := newFrontierEngine(g, parallel.ResolveProcs(procs), mode, &st, ws, nil)
					spec := roundSpec{scratch: delta, source: func(_ int, v uint32) float64 {
						delta.AddOwned(v, -0.25)
						return 0.5 / float64(g.Degree(v))
					}}
					keep := func(v uint32, rv float64) bool { return rv >= 1e-3*float64(g.Degree(v)) }
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						eng.round(frontier, spec)
						eng.advance(delta, r, keep)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(vol), "ns/edge")
				})
			}
		}
	}
}

// hubGraph is the fixture that pins the pull round's vertex-snapped
// chunking: vertex 0 is a hub whose adjacency spans several edgeMapGrain
// chunks (so its one owner must sum across what would be chunk boundaries,
// and the chunks its list covers own nothing), some vertices in the middle
// and a run at the end have degree zero (slots shared with a neighbour, or
// past the last edge), and n is not a multiple of 64.
func hubGraph() *graph.CSR {
	const spokes, n = 6000, 6203
	var edges []graph.Edge
	for v := uint32(1); v <= spokes; v++ {
		if v%97 == 0 {
			continue // isolated, in the middle of the ID range
		}
		edges = append(edges, graph.Edge{U: 0, V: v})
		if w := v + 1; w <= spokes && w%97 != 0 {
			edges = append(edges, graph.Edge{U: v, V: w})
		}
		if w := v*7%spokes + 1; w != v && w%97 != 0 {
			edges = append(edges, graph.Edge{U: v, V: w})
		}
	}
	return graph.FromEdges(1, n, edges)
}

// TestDenseRoundBitIdenticalAcrossProcs pins the pull round's contract:
// under FrontierDense every kernel that rides the frontier engine returns
// the vector, Stats and sweep of its one-worker run on the heap CSR to the
// last bit, at any worker count and on either graph representation — each
// destination is summed by one writer in adjacency order, so there is no
// schedule for the result to depend on.
func TestDenseRoundBitIdenticalAcrossProcs(t *testing.T) {
	kernels := map[string]func(g graph.Graph, cfg RunConfig) (*sparse.Vector, Stats){
		"prnibble": func(g graph.Graph, cfg RunConfig) (*sparse.Vector, Stats) {
			return PRNibbleRun(g, []uint32{0, 5}, 0.05, 1e-6, OptimizedRule, 1, cfg)
		},
		"prnibble-beta": func(g graph.Graph, cfg RunConfig) (*sparse.Vector, Stats) {
			return PRNibbleRun(g, []uint32{0, 5}, 0.05, 1e-6, OriginalRule, 0.5, cfg)
		},
		"nibble": func(g graph.Graph, cfg RunConfig) (*sparse.Vector, Stats) {
			return NibbleRun(g, []uint32{0, 5}, 1e-7, 12, cfg)
		},
		"hkpr": func(g graph.Graph, cfg RunConfig) (*sparse.Vector, Stats) {
			return HKPRRun(g, []uint32{0, 5}, 6, 12, 1e-6, cfg)
		},
	}
	evolving := func(g graph.Graph, procs int) (EvolvingSetResult, Stats) {
		res, st := EvolvingSetPar(g, 5, EvolvingSetOptions{MaxIter: 30, Seed: 11, Procs: procs, Frontier: FrontierDense})
		res.Set = sortedU32(res.Set) // member order is unspecified
		return res, st
	}
	for gname, heap := range map[string]*graph.CSR{
		"hub":       hubGraph(),
		"community": gen.CommunityGraph(1, 3001, 12, 6, 50, 200, 2.5, 23),
	} {
		reprs := map[string]graph.Graph{"heap": heap, "lgz": compressGraph(t, heap)}
		for kname, run := range kernels {
			base := runKernel(func() (*sparse.Vector, Stats) { return run(heap, RunConfig{Procs: 1, Frontier: FrontierDense}) })
			if base.vec.Len() < heap.NumVertices()/4 {
				t.Fatalf("%s/%s: support %d: the fixture does not reach the dense regime", gname, kname, base.vec.Len())
			}
			baseSweep := SweepCut(heap, base.vec, 1)
			for rname, g := range reprs {
				for _, procs := range frontierProcs() {
					label := fmt.Sprintf("%s/%s/%s/p%d", gname, kname, rname, procs)
					got := runKernel(func() (*sparse.Vector, Stats) { return run(g, RunConfig{Procs: procs, Frontier: FrontierDense}) })
					requireEquivalentRuns(t, label, g, true, 0, base, got)
					requireSweepsIdentical(t, label, baseSweep, SweepCut(g, got.vec, procs))
				}
			}
		}
		baseSet, baseSt := evolving(heap, 1)
		for rname, g := range reprs {
			for _, procs := range frontierProcs() {
				res, st := evolving(g, procs)
				if st != baseSt || !sameCluster(res.Set, baseSet.Set) || res.Conductance != baseSet.Conductance ||
					res.Volume != baseSet.Volume || res.Cut != baseSet.Cut || res.Steps != baseSet.Steps {
					t.Fatalf("%s/evolving/%s/p%d: %+v %+v, want %+v %+v", gname, rname, procs, res, st, baseSet, baseSt)
				}
			}
		}
	}
}

// syncPRNibble is the sequential reference of the synchronous PR-Nibble
// (§3.3) on flat arrays: per round every above-threshold vertex pushes, and
// each destination takes its self-update first and then its frontier
// neighbours' shares in ascending order — the order a one-worker engine
// round adds them in, so the engine must match it bit for bit. Unlike the
// pull round it consults the frontier per edge instead of trusting the share
// array to be zero elsewhere. It also reports whether some round's frontier
// was smaller than the one before.
func syncPRNibble(g *graph.CSR, seed uint32, alpha, eps float64, rule PushRule) (p []float64, shrank bool) {
	pGain, edgeShare, selfKeep := rule.coefficients(alpha)
	n := g.NumVertices()
	p = make([]float64, n)
	r := make([]float64, n)
	share := make([]float64, n)
	inF := make([]bool, n)
	r[seed] = 1
	for prev := 0; ; {
		size := 0
		for v := 0; v < n; v++ {
			d := g.Degree(uint32(v))
			if inF[v] = d > 0 && r[v] >= eps*float64(d); inF[v] {
				share[v] = edgeShare * r[v] / float64(d)
				size++
			}
		}
		if size == 0 {
			return p, shrank
		}
		shrank = shrank || size < prev
		prev = size
		next := append([]float64(nil), r...)
		for w := 0; w < n; w++ {
			s, hit := 0.0, inF[w]
			if hit {
				p[w] += pGain * r[w]
				s = (selfKeep - 1) * r[w]
			}
			for _, u := range g.Neighbors(uint32(w)) {
				if inF[u] {
					s += share[u]
					hit = true
				}
			}
			if hit {
				next[w] = r[w] + s
			}
		}
		r = next
	}
}

// TestDensePullMatchesSequentialReference guards the hazard the pull
// direction introduced: a push round ignores the share slot of a vertex
// outside the frontier, a pull round adds it. Shares of vertices that left
// the frontier, and shares left in a recycled workspace by an earlier query,
// must therefore read zero — checked against the sequential reference, which
// does not depend on them.
func TestDensePullMatchesSequentialReference(t *testing.T) {
	g := gen.CommunityGraph(1, 600, 10, 5, 20, 60, 2.5, 7)
	const alpha, eps = 0.05, 1e-5
	requireReference := func(t *testing.T, label string, seed uint32, got *sparse.Vector) (shrank bool) {
		t.Helper()
		want, shrank := syncPRNibble(g, seed, alpha, eps, OptimizedRule)
		gm := entries(got)
		for v, pv := range want {
			if gv := gm[uint32(v)]; math.Float64bits(gv) != math.Float64bits(pv) {
				t.Fatalf("%s: p[%d] = %v, sequential reference %v", label, v, gv, pv)
			}
		}
		return shrank
	}
	t.Run("shrinking-frontier", func(t *testing.T) {
		for _, procs := range frontierProcs() {
			vec, _ := PRNibbleRun(g, []uint32{0}, alpha, eps, OptimizedRule, 1, RunConfig{Procs: procs, Frontier: FrontierDense})
			if !requireReference(t, fmt.Sprintf("p%d", procs), 0, vec) {
				t.Fatal("the frontier never shrank between rounds; the fixture does not exercise stale shares")
			}
		}
	})
	t.Run("recycled-workspace", func(t *testing.T) {
		pool := workspace.NewPool(g.NumVertices())
		for _, procs := range frontierProcs() {
			cfg := RunConfig{Procs: procs, Frontier: FrontierDense, Workspace: pool}
			// Two other queries dirty the arena first, one of them cut short.
			HKPRRun(g, []uint32{300}, 6, 12, 1e-7, cfg)
			stop := &roundCanceller{after: 3, cancel: make(chan struct{})}
			cut := cfg
			cut.Cancel, cut.Observer = stop.cancel, stop
			PRNibbleRun(g, []uint32{450}, alpha, 1e-7, OptimizedRule, 1, cut)
			vec, _ := PRNibbleRun(g, []uint32{7}, alpha, eps, OptimizedRule, 1, cfg)
			requireReference(t, fmt.Sprintf("p%d", procs), 7, vec)
		}
		if st := pool.Stats(); st.Hits == 0 {
			t.Fatalf("the queries never shared a workspace: %+v", st)
		}
	})
}
