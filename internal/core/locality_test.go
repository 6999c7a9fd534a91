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
// one and fails the test. A warmed pooled query must, besides, allocate no
// more than its answer, in either universe: its tables come from the
// workspace.

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
var localityKernels = map[string]func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats){
	"prnibble": func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
		return PRNibbleRun(g, []uint32{seed}, 0.1, 2e-4, OptimizedRule, 1, cfg)
	},
	"nibble": func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
		return NibbleRun(g, []uint32{seed}, 2e-4, 8, cfg)
	},
	"hkpr": func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
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
		g    *graph.CSR
		pool *workspace.Pool
	}
	us := []universe{{g: small}, {g: big}}
	for i := range us {
		us[i].pool = workspace.NewPool(us[i].g.NumVertices())
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
					if pooled {
						cfg.Workspace = u.pool
					}
					query := func() kernelRun {
						return runKernel(func() (*sparse.Vector, Stats) { return kernel(u.g, seed, cfg) })
					}
					runs[i] = query()
					sweeps[i] = SweepCut(u.g, runs[i].vec, 1)
					allocs[i], bytes[i] = allocsAndBytes(func() {
						SweepCut(u.g, query().vec, 1)
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
				if pooled {
					for i, u := range us {
						cfg := RunConfig{Procs: 1, Frontier: FrontierSparse, Workspace: u.pool}
						_, got := allocsAndBytes(func() { kernel(u.g, seed, cfg) })
						requireOutputSizedAllocs(t, fmt.Sprintf("%s/universe=%d", label, i), got, runs[i].vec)
					}
				}
			}
		}
	}

	// A pinned-sparse run with a global ε has no promotion to bound its
	// index: it grows with the component it spreads over. The workspace
	// must drop it at Release instead of keeping it for the next query.
	g, pool := big, us[1].pool
	limit := g.NumVertices() / workspace.PromoteFrac // above the small-graph floor at this n
	rec := &recordingObserver{}
	PRNibbleRun(g, []uint32{3}, 0.01, 1e-9, OptimizedRule, 1, RunConfig{Procs: 1, Frontier: FrontierSparse, Workspace: pool, Observer: rec})
	peak := 0
	for _, ev := range rec.events {
		peak = max(peak, ev.frontier+int(ev.edges))
	}
	if peak <= 2*limit {
		t.Fatalf("global run peaked at a %d-entry round bound, within twice the %d-entry cap: it tests nothing", peak, limit)
	}
	w := pool.Acquire()
	if idx := w.Index(); idx.Cap() >= 2*limit || idx.Len() != 0 {
		t.Fatalf("released workspace kept an index at cap %d (limit %d), len %d", idx.Cap(), limit, idx.Len())
	}
	w.Release(1)
}

// requireOutputSizedAllocs fails unless a warmed pooled run allocated no
// more than its output: twice its sparse.Vector snapshot (a uint32 ID and a
// float64 value per entry) plus 16 KiB of constant overhead. Tables, the
// frontier scratch and the β buffers all come from the workspace.
func requireOutputSizedAllocs(t *testing.T, label string, bytes uint64, out *sparse.Vector) {
	t.Helper()
	if limit := uint64(2*12*out.Len() + 16<<10); bytes > limit {
		t.Fatalf("%s: a warmed pooled query allocated %d bytes for a %d-entry answer (limit %d): the workspace did not keep its tables",
			label, bytes, out.Len(), limit)
	}
}

// TestRecycledStateDoesNotChangeBits pins the contract that replaced
// hash-slot order: with one worker a result's bits do not depend on what the
// workspace or a table in it held before — here a larger query from
// elsewhere in the graph, which leaves every recycled buffer at a different
// capacity than a fresh one would have.
func TestRecycledStateDoesNotChangeBits(t *testing.T) {
	g := gen.CommunityGraph(1, 5000, 12, 6, 50, 200, 2.5, 23)
	pool := workspace.NewPool(g.NumVertices())
	for _, mode := range []FrontierMode{FrontierAuto, FrontierSparse} {
		for name, kernel := range localityKernels {
			label := fmt.Sprintf("%s/%s", name, mode)
			cfg := RunConfig{Procs: 1, Frontier: mode}
			want := runKernel(func() (*sparse.Vector, Stats) { return kernel(g, 9, cfg) })
			wantSweep := SweepCut(g, want.vec, 1)
			cfg.Workspace = pool
			PRNibbleRun(g, []uint32{4000}, 0.01, 1e-6, OptimizedRule, 1, cfg)
			got := runKernel(func() (*sparse.Vector, Stats) { return kernel(g, 9, cfg) })
			requireEquivalentRuns(t, label, g, true, 0, want, got)
			requireSweepsIdentical(t, label, wantSweep, SweepCut(g, got.vec, 1))
		}
	}
}
