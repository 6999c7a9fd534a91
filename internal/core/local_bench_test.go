package core

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/rng"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// local_bench_test.go is the inner loop for the local regime, the one the
// serve-* workloads of benchmarks/ live in: the soc-LJ stand-in at the
// harness's size and parameters, one worker, pooled workspace and result
// arena, uniformly random seeds. One op is one query.
//
//	go test -run '^$' -bench 'LocalQuery|LocalSweep/local/par/procs=1' -benchtime 640x ./internal/core

const (
	localAlpha   = 0.01
	localEps     = 1e-5
	localQueries = 64
)

var localBench struct {
	once  sync.Once
	g     *graph.CSR
	seeds []uint32
}

// localBenchGraph builds (once per process) the harness's serving graph and
// its query seeds.
func localBenchGraph() (*graph.CSR, []uint32) {
	localBench.once.Do(func() {
		g := gen.CommunityGraph(0, 240_000, 17, 6, 8, 2000, 2.5, 0xA1)
		r := rng.New(22)
		seeds := make([]uint32, 0, localQueries)
		for len(seeds) < localQueries {
			if v := uint32(r.Intn(g.NumVertices())); g.Degree(v) > 0 {
				seeds = append(seeds, v)
			}
		}
		localBench.g, localBench.seeds = g, seeds
	})
	return localBench.g, localBench.seeds
}

// requireLocalAnswers is the pre-timing check: every query, run the way the
// benchmark times it (one worker, recycled workspace and arena), is held to
// requireEquivalentRuns against a run on fresh allocations — bit-identical,
// mass-conserving, below the push threshold at exit — and to the sequential
// reference: both vectors under-approximate the same PageRank vector by less
// than eps*d(v), so they are that close to each other.
func requireLocalAnswers(b *testing.B, g *graph.CSR, seeds []uint32, cfg RunConfig) {
	b.Helper()
	for _, s := range seeds {
		seed := []uint32{s}
		want := runKernel(func() (*sparse.Map, Stats) {
			return PRNibbleRun(g, seed, localAlpha, localEps, OptimizedRule, 1, RunConfig{Procs: 1})
		})
		cfg.Result.Reset()
		got := runKernel(func() (*sparse.Map, Stats) {
			return PRNibbleRun(g, seed, localAlpha, localEps, OptimizedRule, 1, cfg)
		})
		requireEquivalentRuns(b, "local query", g, true, localEps, want, got)
		ref, _ := PRNibbleSeq(g, seed, localAlpha, localEps, OptimizedRule)
		check := func(v uint32, _ float64) {
			if diff, tol := math.Abs(ref.Get(v)-got.vec.Get(v)), localEps*float64(g.Degree(v)); diff > tol*(1+1e-9) {
				b.Fatalf("seed %d: p[%d] is %v from the sequential reference, more than eps*d = %v", s, v, diff, tol)
			}
		}
		ref.ForEach(check)
		got.vec.ForEach(check)
	}
}

// BenchmarkLocalQuery times the diffusion of one serving query and reports
// what it costs per edge it touches.
func BenchmarkLocalQuery(b *testing.B) {
	g, seeds := localBenchGraph()
	pool := workspace.NewPool(g.NumVertices())
	arena := pool.AcquireResult()
	defer arena.Release()
	cfg := RunConfig{Procs: 1, Workspace: pool, Result: arena}
	requireLocalAnswers(b, g, seeds, cfg)
	var edges int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arena.Reset()
		_, st := PRNibbleRun(g, seeds[i%len(seeds):][:1], localAlpha, localEps, OptimizedRule, 1, cfg)
		edges += st.EdgesTouched
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}

// BenchmarkLocalSweep times the sweep cut of one serving query's vector
// (support about 1.4k; "par/procs=1" is what a request runs) and reports
// what it costs per edge of the support. The other sub-benchmarks are the
// grid ROADMAP item 4(b) asks for: all three sweeps, at one worker and at
// all of them, on the local vectors and on the whole-graph vector of the
// global-diffusion workload (n = 60,000, eps = 2e-7).
func BenchmarkLocalSweep(b *testing.B) {
	g, seeds := localBenchGraph()
	local := make([]*sparse.Map, len(seeds))
	for i, s := range seeds {
		local[i], _ = PRNibbleRun(g, []uint32{s}, localAlpha, localEps, OptimizedRule, 1, RunConfig{Procs: 1})
	}
	gg := gen.CommunityGraph(0, 60_000, 17, 6, 8, 2000, 2.5, 0xA1)
	root, _ := gg.LargestComponent()
	global, _ := PRNibbleRun(gg, []uint32{root}, localAlpha, 2e-7, OptimizedRule, 1, RunConfig{})
	for _, in := range []struct {
		name string
		g    *graph.CSR
		vecs []*sparse.Map
	}{{"local", g, local}, {"global", gg, []*sparse.Map{global}}} {
		arena := workspace.NewResult()
		vols := make([]uint64, len(in.vecs))
		for i, vec := range in.vecs {
			want := SweepCutSeq(in.g, vec, nil)
			requireSweepsIdentical(b, in.name, want, SweepCutPar(in.g, vec, 1, arena))
			requireSweepsIdentical(b, in.name, want, SweepCutParSort(in.g, vec, 0, arena))
			vols[i] = in.g.Volume(want.Order)
			arena.Reset()
		}
		for _, sw := range []struct {
			name  string
			procs int
			run   func(vec *sparse.Map)
		}{
			{"par", 1, func(vec *sparse.Map) { SweepCutPar(in.g, vec, 1, arena) }},
			{"seq", 1, func(vec *sparse.Map) { SweepCutSeq(in.g, vec, arena) }},
			{"parSort", 1, func(vec *sparse.Map) { SweepCutParSort(in.g, vec, 1, arena) }},
			{"par", 0, func(vec *sparse.Map) { SweepCutPar(in.g, vec, 0, arena) }},
			{"parSort", 0, func(vec *sparse.Map) { SweepCutParSort(in.g, vec, 0, arena) }},
		} {
			b.Run(fmt.Sprintf("%s/%s/procs=%d", in.name, sw.name, parallel.ResolveProcs(sw.procs)), func(b *testing.B) {
				var edges uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					arena.Reset()
					sw.run(in.vecs[i%len(in.vecs)])
					edges += vols[i%len(vols)]
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
			})
		}
	}
}
