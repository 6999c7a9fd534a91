package core

import (
	"fmt"
	"runtime"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// locality_test.go is the locality oracle (ROADMAP item 7(a), the part that
// needs no clock): a local query must cost what it touches, whatever the
// size of the graph around it. The same seeded queries run on a community
// graph and on that graph embedded in a 64 times larger vertex universe —
// isolated padding vertices, then a far component the diffusion never
// reaches — and must return the same bits, the same Stats and the same
// sweep, from about the same number of allocations and allocated bytes. A
// scan of a table's capacity, an n-sized temporary or an O(n) clear anywhere
// on the sparse path makes the big universe cost a multiple of the small
// one and fails the test.

// embedInUniverse returns g's edges on times*n vertices: g itself on the
// first n IDs, a second copy of it on the last n (the far component), and
// isolated vertices in between.
func embedInUniverse(g *graph.CSR, times int) *graph.CSR {
	n := g.NumVertices()
	far := uint32((times - 1) * n)
	var edges []graph.Edge
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(uint32(v)) {
			if uint32(v) < w {
				edges = append(edges,
					graph.Edge{U: uint32(v), V: w},
					graph.Edge{U: far + uint32(v), V: far + w})
			}
		}
	}
	return graph.FromEdges(1, times*n, edges)
}

// localityKernels are the three frontier kernels with parameters that keep
// the support inside a block or two of the community graph.
var localityKernels = map[string]func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Map, Stats){
	"prnibble": func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
		return PRNibbleRun(g, []uint32{seed}, 0.1, 2e-4, OptimizedRule, 1, cfg)
	},
	"nibble": func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
		return NibbleRun(g, []uint32{seed}, 2e-4, 8, cfg)
	},
	"hkpr": func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Map, Stats) {
		return HKPRRun(g, []uint32{seed}, 3, 10, 1e-3, cfg)
	},
}

// allocsAndBytes measures one call of run: heap objects and heap bytes.
func allocsAndBytes(run func()) (allocs float64, bytes uint64) {
	const runs = 5
	allocs = testing.AllocsPerRun(runs, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / runs
}

func TestLocalityOracle(t *testing.T) {
	blocks := make([]int, 16)
	for i := range blocks {
		blocks[i] = 64
	}
	small := gen.SBM(1, blocks, 10, 1, 7)
	big := embedInUniverse(small, 64)
	if big.NumVertices() != 64*small.NumVertices() || big.TotalVolume() != 2*small.TotalVolume() {
		t.Fatalf("embedding: n=%d 2m=%d from n=%d 2m=%d", big.NumVertices(), big.TotalVolume(), small.NumVertices(), small.TotalVolume())
	}
	type universe struct {
		g     *graph.CSR
		pool  *workspace.Pool
		arena *workspace.Result
	}
	us := []universe{{g: small}, {g: big}}
	for i := range us {
		us[i].pool = workspace.NewPool(us[i].g.NumVertices())
		us[i].arena = us[i].pool.AcquireResult()
		defer us[i].arena.Release()
	}
	for name, kernel := range localityKernels {
		for _, seed := range []uint32{3, 200, 777} {
			for _, pooled := range []bool{false, true} {
				label := fmt.Sprintf("%s/seed=%d/pooled=%t", name, seed, pooled)
				var runs [2]kernelRun
				var sweeps [2]SweepResult
				var allocs [2]float64
				var bytes [2]uint64
				for i, u := range us {
					cfg := RunConfig{Procs: 1, Frontier: FrontierSparse}
					var arena *workspace.Result
					if pooled {
						cfg.Workspace, cfg.Result, arena = u.pool, u.arena, u.arena
					}
					query := func() kernelRun {
						if pooled {
							arena.Reset()
						}
						return runKernel(func() (*sparse.Map, Stats) { return kernel(u.g, seed, cfg) })
					}
					runs[i] = query()
					sweeps[i] = SweepCutPar(u.g, runs[i].vec, 1, arena)
					// Copy what the comparison below reads out of the arena the
					// measured runs are about to recycle.
					sweeps[i].Order = append([]uint32(nil), sweeps[i].Order...)
					sweeps[i].Cluster = sweeps[i].Order[:len(sweeps[i].Cluster)]
					sweeps[i].PrefixConductance = append([]float64(nil), sweeps[i].PrefixConductance...)
					runs[i].vec = runs[i].vec.Clone()
					allocs[i], bytes[i] = allocsAndBytes(func() {
						SweepCutPar(u.g, query().vec, 1, arena)
					})
				}
				if vol := small.Volume(sweeps[0].Order); 2*vol >= small.TotalVolume() {
					t.Fatalf("%s: support volume %d is not local to a graph of volume %d; the sweeps' min(vol, 2m-vol) would differ for that reason alone", label, vol, small.TotalVolume())
				}
				requireEquivalentRuns(t, label, big, true, 0, runs[0], runs[1])
				requireSweepsIdentical(t, label, sweeps[0], sweeps[1])
				if allocs[1] > 2*allocs[0] || bytes[1] > 2*bytes[0] {
					t.Fatalf("%s: %.0f allocs and %d bytes per query in the 64x universe against %.0f and %d in the graph itself: something on the sparse path is sized by n",
						label, allocs[1], bytes[1], allocs[0], bytes[0])
				}
			}
		}
	}
}

// TestRecycledStateDoesNotChangeBits pins the contract that replaced
// hash-slot order: with one worker a result's bits do not depend on what the
// workspace, the arena or a table in them held before — here a larger query
// from elsewhere in the graph, which leaves every recycled buffer and the
// arena's rank table at a different capacity than a fresh one would have.
func TestRecycledStateDoesNotChangeBits(t *testing.T) {
	g := gen.CommunityGraph(1, 5000, 12, 6, 50, 200, 2.5, 23)
	pool := workspace.NewPool(g.NumVertices())
	arena := pool.AcquireResult()
	defer arena.Release()
	for _, mode := range []FrontierMode{FrontierAuto, FrontierSparse} {
		for name, kernel := range localityKernels {
			label := fmt.Sprintf("%s/%s", name, mode)
			cfg := RunConfig{Procs: 1, Frontier: mode}
			want := runKernel(func() (*sparse.Map, Stats) { return kernel(g, 9, cfg) })
			wantSweep := SweepCutPar(g, want.vec, 1, nil)
			cfg.Workspace, cfg.Result = pool, arena
			arena.Reset()
			warm, _ := PRNibbleRun(g, []uint32{4000}, 0.01, 1e-6, OptimizedRule, 1, cfg)
			SweepCutPar(g, warm, 1, arena)
			arena.Reset()
			got := runKernel(func() (*sparse.Map, Stats) { return kernel(g, 9, cfg) })
			requireEquivalentRuns(t, label, g, true, 0, want, got)
			requireSweepsIdentical(t, label, wantSweep, SweepCutPar(g, got.vec, 1, arena))
		}
	}
}
