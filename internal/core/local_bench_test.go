package core

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/rng"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// local_bench_test.go is the inner loop for the local regime, the one the
// serve-* workloads of benchmarks/ live in: the soc-LJ stand-in at the
// harness's size and parameters, one worker, pooled workspace, uniformly
// random seeds. One op is one query.
//
//	go test -run '^$' -bench 'LocalQuery|LocalSweep/local/sweep/procs=1' -benchtime 640x ./internal/core
//	go test -run '^$' -bench 'LocalSweepLGZ' -benchtime 640x ./internal/core
//	go test -run '^$' -bench 'LocalQueryView' -benchtime 640x -count 5 ./internal/core

const (
	localAlpha   = 0.01
	localEps     = 1e-5
	localQueries = 64
)

var localBench struct {
	once  sync.Once
	g     *graph.CSR
	seeds []uint32

	lgzOnce sync.Once
	lgz     *graph.CCSR
	lgzErr  error
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

// localBenchLGZ returns (once per process) the serving graph as the
// workloads serve it: the .lgz image of localBenchGraph, read back.
func localBenchLGZ(b *testing.B) *graph.CCSR {
	g, _ := localBenchGraph()
	localBench.lgzOnce.Do(func() {
		var buf bytes.Buffer
		if localBench.lgzErr = graph.WriteCompressed(1, &buf, g); localBench.lgzErr == nil {
			localBench.lgz, localBench.lgzErr = graph.NewCompressed(buf.Bytes())
		}
	})
	if localBench.lgzErr != nil {
		b.Fatal(localBench.lgzErr)
	}
	return localBench.lgz
}

// requireLocalAnswers is the pre-timing check: every query, run the way the
// benchmark times it (one worker, recycled workspace), is held to
// requireEquivalentRuns against a run on fresh allocations — bit-identical,
// mass-conserving, below the push threshold at exit — and to the sequential
// reference: both vectors under-approximate the same PageRank vector by less
// than eps*d(v), so they are that close to each other.
func requireLocalAnswers(b *testing.B, g graph.Graph, seeds []uint32, cfg RunConfig) {
	b.Helper()
	for _, s := range seeds {
		seed := []uint32{s}
		want := runKernel(func() (*sparse.Vector, Stats) {
			return PRNibbleRun(g, seed, localAlpha, localEps, OptimizedRule, 1, RunConfig{Procs: 1})
		})
		got := runKernel(func() (*sparse.Vector, Stats) {
			return PRNibbleRun(g, seed, localAlpha, localEps, OptimizedRule, 1, cfg)
		})
		requireEquivalentRuns(b, "local query", g, true, localEps, want, got)
		ref, _ := PRNibbleSeq(g, seed, localAlpha, localEps, OptimizedRule)
		refm, gotm := entries(ref), entries(got.vec)
		check := func(v uint32, _ float64) {
			if diff, tol := math.Abs(refm[v]-gotm[v]), localEps*float64(g.Degree(v)); diff > tol*(1+1e-9) {
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
	benchLocalQuery(b, g, seeds)
}

// BenchmarkLocalQueryLGZ is BenchmarkLocalQuery on the storage serve-local
// runs on: the same graph and seeds, round-tripped through the .lgz
// encoding, so every adjacency list the query reads is decoded.
func BenchmarkLocalQueryLGZ(b *testing.B) {
	_, seeds := localBenchGraph()
	benchLocalQuery(b, localBenchLGZ(b), seeds)
}

// BenchmarkLocalQueryView is the serving query plus its one-worker sweep
// on a graph under ingest: the heap serving graph behind a graph.Versioned
// with 32 batches of 1,024 records pending, drawn as serve-ingest's writer
// draws them (uniformly random inserts; a fifth of each batch deletes
// earlier inserts), half its compaction threshold, read through the
// epoch's view and through the
// same edge set flattened by Compact. One op runs a query on each, in
// turns, so both sides see the same host; view-ns/edge and flat-ns/edge
// divide each side's time by the diffusion's edges.
//
//	go test -run '^$' -bench 'LocalQueryView' -benchtime 640x -count 5 ./internal/core
func BenchmarkLocalQueryView(b *testing.B) {
	g, seeds := localBenchGraph()
	n := g.NumVertices()
	vg := graph.NewVersioned(1, g)
	r := rng.New(43)
	var mine []graph.Edge
	for batch := 0; batch < 32; batch++ {
		var ins, del []graph.Edge
		for len(del) < 1024/5 && len(mine) > 0 {
			i := r.Intn(len(mine))
			del = append(del, mine[i])
			mine[i] = mine[len(mine)-1]
			mine = mine[:len(mine)-1]
		}
		for len(ins)+len(del) < 1024 {
			if e := (graph.Edge{U: uint32(r.Intn(n)), V: uint32(r.Intn(n))}); e.U != e.V {
				ins = append(ins, e)
			}
		}
		mine = append(mine, ins...)
		if _, err := vg.Apply(ins, del, 0); err != nil {
			b.Fatal(err)
		}
	}
	view := vg.Snapshot()
	defer view.Release()
	vg.Compact(0)
	flat := vg.Snapshot()
	defer flat.Release()
	sides := []struct {
		g       graph.Graph
		cfg     RunConfig
		elapsed time.Duration
		edges   int64
	}{{g: view.Graph()}, {g: flat.Graph()}}
	for i := range sides {
		sides[i].cfg = RunConfig{Procs: 1, Workspace: workspace.NewPool(n)}
		requireLocalAnswers(b, sides[i].g, seeds, sides[i].cfg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sides {
			s := &sides[(i+j)%2]
			start := time.Now()
			vec, st := PRNibbleRun(s.g, seeds[i%len(seeds):][:1], localAlpha, localEps, OptimizedRule, 1, s.cfg)
			SweepCut(s.g, vec, 1)
			s.elapsed += time.Since(start)
			s.edges += st.EdgesTouched
		}
	}
	for i, name := range []string{"view", "flat"} {
		b.ReportMetric(float64(sides[i].elapsed.Nanoseconds())/float64(sides[i].edges), name+"-ns/edge")
	}
}

func benchLocalQuery(b *testing.B, g graph.Graph, seeds []uint32) {
	cfg := RunConfig{Procs: 1, Workspace: workspace.NewPool(g.NumVertices())}
	requireLocalAnswers(b, g, seeds, cfg)
	var edges int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st := PRNibbleRun(g, seeds[i%len(seeds):][:1], localAlpha, localEps, OptimizedRule, 1, cfg)
		edges += st.EdgesTouched
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}

// BenchmarkLocalSweep times the sweep cut of one serving query's vector
// (support about 1.4k; "sweep/procs=1" — the sequential loop — is what a
// request runs) and reports what it costs per edge of the support. The
// other sub-benchmarks complete the grid of ROADMAP item 4(b): SweepCut and
// the Theorem-1 SweepCutParSort, at one worker and at all of them, on the
// local vectors and on the whole-graph vector of the global-diffusion
// workload (n = 60,000, eps = 2e-7).
func BenchmarkLocalSweep(b *testing.B) {
	g, _ := localBenchGraph()
	local := localSweepVectors()
	gg := gen.CommunityGraph(0, 60_000, 17, 6, 8, 2000, 2.5, 0xA1)
	root, _ := gg.LargestComponent()
	global, _ := PRNibbleRun(gg, []uint32{root}, localAlpha, 2e-7, OptimizedRule, 1, RunConfig{})
	for _, in := range []struct {
		name string
		g    *graph.CSR
		vecs []*sparse.Vector
	}{{"local", g, local}, {"global", gg, []*sparse.Vector{global}}} {
		vols := requireSweepAnswers(b, in.name, in.g, in.vecs)
		for _, sw := range []struct {
			name  string
			procs int
			run   func(vec *sparse.Vector)
		}{
			{"sweep", 1, func(vec *sparse.Vector) { SweepCut(in.g, vec, 1) }},
			{"parSort", 1, func(vec *sparse.Vector) { SweepCutParSort(in.g, vec, 1) }},
			{"sweep", 0, func(vec *sparse.Vector) { SweepCut(in.g, vec, 0) }},
			{"parSort", 0, func(vec *sparse.Vector) { SweepCutParSort(in.g, vec, 0) }},
		} {
			b.Run(fmt.Sprintf("%s/%s/procs=%d", in.name, sw.name, parallel.ResolveProcs(sw.procs)), func(b *testing.B) {
				var edges uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sw.run(in.vecs[i%len(in.vecs)])
					edges += vols[i%len(vols)]
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
			})
		}
	}
}

// BenchmarkLocalSweepLGZ is BenchmarkLocalSweep's "local/sweep/procs=1" on
// the storage serve-local serves: the same 64 serving vectors swept at one
// worker on the .lgz round trip of the graph, so every adjacency list the
// sweep reads is decoded.
func BenchmarkLocalSweepLGZ(b *testing.B) {
	g := localBenchLGZ(b)
	local := localSweepVectors()
	vols := requireSweepAnswers(b, "local/lgz", g, local)
	var edges uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SweepCut(g, local[i%len(local)], 1)
		edges += vols[i%len(vols)]
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(edges), "ns/edge")
}

// localSweepVectors returns the diffusion vectors of the serving queries,
// one per seed of localBenchGraph, as a request computes them.
func localSweepVectors() []*sparse.Vector {
	g, seeds := localBenchGraph()
	local := make([]*sparse.Vector, len(seeds))
	for i, s := range seeds {
		local[i], _ = PRNibbleRun(g, []uint32{s}, localAlpha, localEps, OptimizedRule, 1, RunConfig{Procs: 1})
	}
	return local
}

// requireSweepAnswers is the sweep benchmarks' pre-timing check: on every
// vector, the one-worker SweepCut (what a request runs) must be identical to
// SweepCut at all workers and to SweepCutParSort. It returns the volume of
// each vector's sweep order, the edges a sweep of it reads.
func requireSweepAnswers(b *testing.B, name string, g graph.Graph, vecs []*sparse.Vector) []uint64 {
	b.Helper()
	vols := make([]uint64, len(vecs))
	for i, vec := range vecs {
		want := SweepCut(g, vec, 1)
		requireSweepsIdentical(b, name, want, SweepCut(g, vec, 0))
		requireSweepsIdentical(b, name, want, SweepCutParSort(g, vec, 0))
		vols[i] = g.Volume(want.Order)
	}
	return vols
}
