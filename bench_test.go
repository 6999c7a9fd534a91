package parcluster

// bench_test.go: one testing.B benchmark per paper table/figure plus the
// DESIGN.md ablations, on small fixture graphs so the full suite runs in
// minutes. The cmd/lgc-bench harness runs the same experiments at the
// paper's row/column granularity on the larger stand-ins; EXPERIMENTS.md
// records the measured shapes against the paper's.
//
// Index (see DESIGN.md §2):
//
//	Table 1  -> BenchmarkTable1PRNibblePushes (reports pushes/iterations)
//	Table 3  -> BenchmarkTable3* (Seq vs Par for all four + sweep)
//	Figure 4 -> BenchmarkFig4PRNibbleSeq{Original,Optimized}
//	Figure 8 -> BenchmarkFig8ParamSweep (time vs eps series)
//	Figure 9 -> BenchmarkFig9Speedup (per-core sub-benchmarks)
//	Figure 10-> BenchmarkFig10Sweep{Seq,Par}
//	Figure 11-> BenchmarkFig11SweepVolume (per-volume sub-benchmarks)
//	Figure 12-> BenchmarkFig12NCP
//	A1       -> BenchmarkA1RandHKPR{Sorted,Contended}
//	A2       -> BenchmarkA2Sweep{Bucket,ThmOneSort}
//	A3       -> BenchmarkA3BetaFraction
//	A4       -> BenchmarkFrontierMode (sparse vs dense vs auto; per-round
//	            crossover: internal/core BenchmarkFrontierModeCrossover)
import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"parcluster/internal/api"
	"parcluster/internal/core"
	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/workspace"
)

var (
	fixtureOnce sync.Once
	fixSocial   *graph.CSR // community-structured, heavy-tailed
	fixSeed     uint32
	fixGrid     *graph.CSR // mesh with no community structure
	fixNibbleV  *Vector    // a large-support Nibble vector for sweep benches
)

func fixtures() {
	fixtureOnce.Do(func() {
		fixSocial = gen.CommunityGraph(0, 300_000, 14, 6, 20, 2000, 2.5, 0xBEEF)
		fixSeed, _ = fixSocial.LargestComponent()
		fixGrid = gen.Grid3D(0, 25)
		fixNibbleV, _ = core.NibbleRun(fixSocial, []uint32{fixSeed}, 3e-8, 20, core.RunConfig{})
	})
}

const (
	benchAlpha = 0.01
	benchEps   = 3e-7
	benchHKt   = 10.0
	benchHKN   = 20
	benchWalks = 200_000
)

// --- Table 3: sequential vs parallel times for the four algorithms -------

func BenchmarkTable3NibbleSeq(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.NibbleSeq(fixSocial, []uint32{fixSeed}, 3e-8, 20)
	}
}

func BenchmarkTable3NibblePar(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.NibbleRun(fixSocial, []uint32{fixSeed}, 3e-8, 20, core.RunConfig{})
	}
}

func BenchmarkTable3PRNibbleSeq(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.PRNibbleSeq(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OptimizedRule)
	}
}

func BenchmarkTable3PRNibblePar(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.PRNibbleRun(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OptimizedRule, 1, core.RunConfig{})
	}
}

// HK-PR uses a looser epsilon than the other benches: its sequential
// version is map-heavy and ~25s per run at 3e-7, which would dominate the
// whole suite without changing the comparison's shape.
const benchHKEps = 1e-6

func BenchmarkTable3HKPRSeq(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.HKPRSeq(fixSocial, []uint32{fixSeed}, benchHKt, benchHKN, benchHKEps)
	}
}

func BenchmarkTable3HKPRPar(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.HKPRRun(fixSocial, []uint32{fixSeed}, benchHKt, benchHKN, benchHKEps, core.RunConfig{})
	}
}

func BenchmarkTable3RandHKPRSeq(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.RandHKPRSeq(fixSocial, []uint32{fixSeed}, benchHKt, 10, benchWalks, 1)
	}
}

func BenchmarkTable3RandHKPRPar(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.RandHKPRRun(fixSocial, []uint32{fixSeed}, benchHKt, 10, benchWalks, 1, core.RunConfig{})
	}
}

// --- Table 1: push counts of the parallel vs sequential schedule ---------

func BenchmarkTable1PRNibblePushes(b *testing.B) {
	fixtures()
	var seqPushes, parPushes, parIters int64
	for i := 0; i < b.N; i++ {
		_, sSt := core.PRNibbleSeq(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OptimizedRule)
		_, pSt := core.PRNibbleRun(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OptimizedRule, 1, core.RunConfig{})
		seqPushes, parPushes, parIters = sSt.Pushes, pSt.Pushes, int64(pSt.Iterations)
	}
	b.ReportMetric(float64(seqPushes), "seq-pushes")
	b.ReportMetric(float64(parPushes), "par-pushes")
	b.ReportMetric(float64(parIters), "par-iters")
}

// --- Figure 4: original vs optimized sequential PR-Nibble ----------------

func BenchmarkFig4PRNibbleSeqOriginal(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.PRNibbleSeq(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OriginalRule)
	}
}

func BenchmarkFig4PRNibbleSeqOptimized(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.PRNibbleSeq(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OptimizedRule)
	}
}

// --- Figure 8: parameter sensitivity --------------------------------------

func BenchmarkFig8ParamSweep(b *testing.B) {
	fixtures()
	for _, eps := range []float64{1e-4, 1e-5, 1e-6} {
		b.Run(fmt.Sprintf("prnibble-eps=%.0e", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PRNibbleRun(fixSocial, []uint32{fixSeed}, benchAlpha, eps, core.OptimizedRule, 1, core.RunConfig{})
			}
		})
	}
	for _, T := range []int{5, 20, 40} {
		b.Run(fmt.Sprintf("nibble-T=%d", T), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.NibbleRun(fixSocial, []uint32{fixSeed}, 3e-8, T, core.RunConfig{})
			}
		})
	}
}

// --- Figure 9: speedup vs cores -------------------------------------------

func fig9Procs() []int {
	maxP := runtime.GOMAXPROCS(0)
	grid := []int{1}
	for p := 2; p < maxP; p *= 2 {
		grid = append(grid, p)
	}
	if maxP > 1 {
		grid = append(grid, maxP)
	}
	return grid
}

func BenchmarkFig9Speedup(b *testing.B) {
	fixtures()
	for _, p := range fig9Procs() {
		b.Run(fmt.Sprintf("prnibble/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PRNibbleRun(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OptimizedRule, 1, core.RunConfig{Procs: p})
			}
		})
		b.Run(fmt.Sprintf("randhk/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RandHKPRRun(fixSocial, []uint32{fixSeed}, benchHKt, 10, benchWalks, 1, core.RunConfig{Procs: p})
			}
		})
	}
}

// --- Figures 10 & 11: sweep cut --------------------------------------------

func BenchmarkFig10SweepSeq(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.SweepCutSeq(fixSocial, fixNibbleV)
	}
}

func BenchmarkFig10SweepPar(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.SweepCutPar(fixSocial, fixNibbleV, 0)
	}
}

func BenchmarkFig11SweepVolume(b *testing.B) {
	fixtures()
	for _, eps := range []float64{1e-6, 1e-7, 3e-8} {
		vec, _ := core.NibbleRun(fixSocial, []uint32{fixSeed}, eps, 20, core.RunConfig{})
		if vec.Len() == 0 {
			continue
		}
		b.Run(fmt.Sprintf("support=%d", vec.Len()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.SweepCutPar(fixSocial, vec, 0)
			}
		})
	}
}

// --- Figure 12: NCP ---------------------------------------------------------

func BenchmarkFig12NCP(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.NCP(fixSocial, core.NCPOptions{
			Seeds:    5,
			Alphas:   []float64{0.01},
			Epsilons: []float64{1e-5},
			Procs:    0,
			Seed:     uint64(i),
		})
	}
}

// --- Ablations ---------------------------------------------------------------

func BenchmarkA1RandHKPRSorted(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.RandHKPRRun(fixSocial, []uint32{fixSeed}, benchHKt, 10, benchWalks, 1, core.RunConfig{})
	}
}

func BenchmarkA1RandHKPRContended(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.RandHKPRParContended(fixSocial, fixSeed, benchHKt, 10, benchWalks, 1, 0)
	}
}

func BenchmarkA2SweepBucket(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.SweepCutPar(fixSocial, fixNibbleV, 0)
	}
}

func BenchmarkA2SweepThmOneSort(b *testing.B) {
	fixtures()
	for i := 0; i < b.N; i++ {
		core.SweepCutParSort(fixSocial, fixNibbleV, 0)
	}
}

func BenchmarkA3BetaFraction(b *testing.B) {
	fixtures()
	for _, beta := range []float64{0.25, 0.5, 1.0} {
		b.Run(fmt.Sprintf("beta=%.2f", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PRNibbleRun(fixSocial, []uint32{fixSeed}, benchAlpha, benchEps, core.OptimizedRule, beta, core.RunConfig{})
			}
		})
	}
}

// --- mesh contrast: local clustering terminates fast on structureless graphs

func BenchmarkMeshNoClusters(b *testing.B) {
	fixtures()
	seed, _ := fixGrid.LargestComponent()
	for i := 0; i < b.N; i++ {
		core.PRNibbleRun(fixGrid, []uint32{seed}, benchAlpha, benchEps, core.OptimizedRule, 1, core.RunConfig{})
	}
}

// --- A4: adaptive sparse/dense frontier engine --------------------------

// BenchmarkFrontierMode compares the frontier engine's representations in
// the large-frontier regime the dense path targets: a 64-vertex seed set
// (footnote 5) and a low epsilon keep |F| + vol(F) above Ligra's direction
// threshold for most iterations. Expected shape: dense beats sparse, auto
// tracks the winner (see DESIGN.md ablation A4). The cross-mode determinism
// suite in internal/core proves all three return identical clusters. Its
// per-round companion, BenchmarkFrontierModeCrossover in internal/core,
// sweeps the frontier's volume from 2m/40 to 2m/2 and times a sparse-push
// against a dense-pull round at each: the evidence for the switch point
// (DESIGN.md §4).
func BenchmarkFrontierMode(b *testing.B) {
	fixtures()
	seeds := []uint32{fixSeed}
	for _, v := range fixSocial.Neighbors(fixSeed) {
		if len(seeds) >= 64 {
			break
		}
		seeds = append(seeds, v)
	}
	const lowEps = benchEps / 10
	for _, tc := range []struct {
		name string
		mode core.FrontierMode
	}{
		{"sparse", core.FrontierSparse},
		{"dense", core.FrontierDense},
		{"auto", core.FrontierAuto},
	} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.PRNibbleRun(fixSocial, seeds, benchAlpha, lowEps, core.OptimizedRule, 1, core.RunConfig{Frontier: tc.mode})
			}
		})
	}
}

// --- Workspace pool: steady-state allocation behaviour -------------------

// BenchmarkWorkspacePool measures the allocation profile of repeated
// dense-mode queries against one graph — the lgc-serve steady state —
// with and without the per-graph workspace pool. The pooled variant's
// allocs/op and B/op exclude all graph-sized state (the three ~16
// bytes/vertex flat vectors, the share array, the frontier bitmap and ID
// buffers all come from the pool); what remains is work-proportional
// (per-round hash tables in sparse phases, the result snapshot, the sweep).
// Before/after numbers are recorded in DESIGN.md §5. The determinism suite
// in internal/core proves pooled and unpooled results are identical.
func BenchmarkWorkspacePool(b *testing.B) {
	fixtures()
	seeds := []uint32{fixSeed}
	for _, v := range fixSocial.Neighbors(fixSeed) {
		if len(seeds) >= 64 {
			break
		}
		seeds = append(seeds, v)
	}
	const lowEps = benchEps / 10
	run := func(b *testing.B, pool *core.RunConfig) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.PRNibbleRun(fixSocial, seeds, benchAlpha, lowEps, core.OptimizedRule, 1, *pool)
		}
	}
	b.Run("unpooled", func(b *testing.B) {
		cfg := core.RunConfig{Frontier: core.FrontierDense}
		run(b, &cfg)
	})
	b.Run("pooled", func(b *testing.B) {
		cfg := core.RunConfig{Frontier: core.FrontierDense, Workspace: workspace.NewPool(fixSocial.NumVertices())}
		// Warm the pool so b.N = 1 already measures the steady state.
		core.PRNibbleRun(fixSocial, seeds, benchAlpha, lowEps, core.OptimizedRule, 1, cfg)
		before := cfg.Workspace.Stats().BytesRecycled
		b.ResetTimer()
		run(b, &cfg)
		recycled := cfg.Workspace.Stats().BytesRecycled - before
		b.ReportMetric(float64(recycled)/float64(b.N), "recycled-B/op")
	})
}

// --- Bit-parallel batched diffusion --------------------------------------

var (
	batchFixOnce  sync.Once
	fixLJ         *graph.CSR
	fixLJErr      error
	fixBatchSeeds []uint32
)

// batchFixtures builds the soc-LiveJournal stand-in and a 64-seed working
// set: the largest component's canonical seed plus 63 vertices collected
// breadth-first around it, the shape of a "cluster these related users"
// batch.
func batchFixtures(b *testing.B) {
	batchFixOnce.Do(func() {
		fixLJ, fixLJErr = gen.StandIn(0, "soc-LJ", gen.Small)
		if fixLJErr != nil {
			return
		}
		seed, _ := fixLJ.LargestComponent()
		seen := map[uint32]bool{seed: true}
		fixBatchSeeds = []uint32{seed}
		for at := 0; at < len(fixBatchSeeds) && len(fixBatchSeeds) < 64; at++ {
			for _, v := range fixLJ.Neighbors(fixBatchSeeds[at]) {
				if len(fixBatchSeeds) >= 64 {
					break
				}
				if !seen[v] {
					seen[v] = true
					fixBatchSeeds = append(fixBatchSeeds, v)
				}
			}
		}
	})
	if fixLJErr != nil {
		b.Fatal(fixLJErr)
	}
	if len(fixBatchSeeds) != 64 {
		b.Fatalf("collected %d seeds, want 64", len(fixBatchSeeds))
	}
}

// batchBenchEps keeps per-seed PR-Nibble work meaningful on the Small-scale
// stand-in without making the 64-run fan-out baseline dominate the suite.
const batchBenchEps = 1e-6

// BenchmarkBatchedDiffusion is the tentpole measurement for DESIGN.md §9:
// answering 64 same-parameter PR-Nibble queries one diffusion at a time
// (the serving fan-out baseline) versus one bit-parallel batch whose lanes
// share every edge traversal. One benchmark op answers all 64 units. The
// per-lane vectors are verified bit-identical to the unbatched runs before
// timing starts; per-lane work (pushes, rounds) is identical by
// construction, so the whole gap is traversal sharing.
func BenchmarkBatchedDiffusion(b *testing.B) {
	batchFixtures(b)
	pool := workspace.NewPool(fixLJ.NumVertices())
	units := func() []core.BatchUnit {
		u := make([]core.BatchUnit, len(fixBatchSeeds))
		for i, s := range fixBatchSeeds {
			u[i] = core.BatchUnit{Seeds: []uint32{s}}
		}
		return u
	}
	// Identity guard, outside all timing: every lane must reproduce its
	// unbatched run bit for bit. The dense single-proc run is the exact
	// anchor (the batch's ID-sorted union frontier reproduces the dense
	// traversal's per-vertex accumulation order; unbatched sparse rounds
	// may accumulate in a different — equally valid — order).
	vecs, _ := core.PRNibbleBatch(fixLJ, units(), benchAlpha, batchBenchEps, core.OptimizedRule,
		core.BatchConfig{Procs: 1, Workspace: pool})
	for i, s := range fixBatchSeeds {
		want, _ := core.PRNibbleRun(fixLJ, []uint32{s}, benchAlpha, batchBenchEps, core.OptimizedRule, 1,
			core.RunConfig{Procs: 1, Frontier: core.FrontierDense, Workspace: pool})
		if want.Len() != vecs[i].Len() {
			b.Fatalf("lane %d: support %d != unbatched %d", i, vecs[i].Len(), want.Len())
		}
		bad := false
		want.ForEach(func(k uint32, v float64) { bad = bad || vecs[i].Get(k) != v })
		if bad {
			b.Fatalf("lane %d: batched vector differs from unbatched", i)
		}
	}

	b.Run("fanout", func(b *testing.B) {
		cfg := core.RunConfig{Workspace: pool}
		for i := 0; i < b.N; i++ {
			for _, s := range fixBatchSeeds {
				core.PRNibbleRun(fixLJ, []uint32{s}, benchAlpha, batchBenchEps, core.OptimizedRule, 1, cfg)
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		cfg := core.BatchConfig{Workspace: pool}
		for i := 0; i < b.N; i++ {
			core.PRNibbleBatch(fixLJ, units(), benchAlpha, batchBenchEps, core.OptimizedRule, cfg)
		}
	})
}

// --- Result path: snapshot + sweep + response encoding -------------------

// BenchmarkResultPath measures the allocation profile of the *result* path
// of one dense serving query — the vecFromTable snapshot, the sweep cut, and
// the JSON response encoding — with the diffusion scratch pooled, as
// lgc-serve runs it. The snapshot map and the sweep arrays are owned
// allocations made per query. Numbers are recorded in DESIGN.md §6.
func BenchmarkResultPath(b *testing.B) {
	fixtures()
	seeds := []uint32{fixSeed}
	for _, v := range fixSocial.Neighbors(fixSeed) {
		if len(seeds) >= 64 {
			break
		}
		seeds = append(seeds, v)
	}
	const lowEps = benchEps / 10
	pool := workspace.NewPool(fixSocial.NumVertices())
	response := func(vec *Vector, sw core.SweepResult, st core.Stats) *api.ClusterResponse {
		res := api.ClusterResult{
			Seeds: seeds, Members: sw.Cluster, Size: len(sw.Cluster),
			Conductance: sw.Conductance, Volume: sw.Volume, Cut: sw.Cut, Stats: st,
		}
		return &api.ClusterResponse{
			Graph: "bench", Vertices: fixSocial.NumVertices(), Edges: fixSocial.NumEdges(),
			Algo: "prnibble", Results: []api.ClusterResult{res},
			Aggregate: api.Aggregate{Queries: 1, BestConductance: sw.Conductance, BestSeeds: seeds,
				MeanSize: float64(len(sw.Cluster)), TotalPushes: st.Pushes, TotalEdges: st.EdgesTouched},
		}
	}
	cfg := core.RunConfig{Frontier: core.FrontierDense, Workspace: pool}
	core.PRNibbleRun(fixSocial, seeds, benchAlpha, lowEps, core.OptimizedRule, 1, cfg) // warm scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vec, st := core.PRNibbleRun(fixSocial, seeds, benchAlpha, lowEps, core.OptimizedRule, 1, cfg)
		sw := core.SweepCutPar(fixSocial, vec, cfg.Procs)
		if err := json.NewEncoder(io.Discard).Encode(response(vec, sw, st)); err != nil {
			b.Fatal(err)
		}
	}
}
