package service

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// testEngine builds an engine over a small caveman graph (16 cliques of
// 12 vertices: clear cluster structure, 192 vertices).
func testEngine(t *testing.T) *Engine {
	t.Helper()
	reg := NewRegistry(2, false)
	if err := reg.RegisterSpec("test", "caveman:cliques=16,k=12"); err != nil {
		t.Fatal(err)
	}
	return NewEngine(reg, Config{ProcBudget: 4, CacheSize: 64})
}

func TestEngineClusterBatch(t *testing.T) {
	e := testEngine(t)
	resp, err := e.Cluster(context.Background(), &ClusterRequest{
		Graph: "test",
		Seeds: []uint32{0, 12, 24},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Algo != "prnibble" {
		t.Fatalf("default algo = %q, want prnibble", resp.Algo)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("results = %d, want 3 (one per seed)", len(resp.Results))
	}
	for i, r := range resp.Results {
		if len(r.Seeds) != 1 || r.Seeds[0] != uint32(i*12) {
			t.Fatalf("result %d seeds = %v", i, r.Seeds)
		}
		if r.Size == 0 || r.Conductance >= 1 {
			t.Fatalf("result %d found no cluster: size=%d phi=%g", i, r.Size, r.Conductance)
		}
		// The caveman graph is a ring of 12-cliques; the best sweep cut is
		// a run of whole cliques (cutting the ring twice), so the size is a
		// multiple of the clique size and well below the whole graph.
		if r.Size%12 != 0 || r.Size >= 192 {
			t.Fatalf("result %d size = %d, want a proper multiple of the clique size", i, r.Size)
		}
	}
	agg := resp.Aggregate
	if agg.Queries != 3 || agg.CacheHits != 0 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.BestConductance >= 1 || agg.MeanSize <= 0 || agg.TotalPushes <= 0 {
		t.Fatalf("aggregate not populated: %+v", agg)
	}
}

func TestEngineSeedSet(t *testing.T) {
	e := testEngine(t)
	resp, err := e.Cluster(context.Background(), &ClusterRequest{
		Graph:   "test",
		Seeds:   []uint32{0, 1, 2},
		SeedSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("results = %d, want 1 (single seed-set diffusion)", len(resp.Results))
	}
	if len(resp.Results[0].Seeds) != 3 {
		t.Fatalf("seeds = %v, want the full set", resp.Results[0].Seeds)
	}
	// A permutation of the same set is the same query and must hit the cache.
	perm, err := e.Cluster(context.Background(), &ClusterRequest{
		Graph:   "test",
		Seeds:   []uint32{2, 0, 1},
		SeedSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !perm.Results[0].Cached {
		t.Fatal("permuted seed set missed the cache")
	}
}

func TestEngineCacheHitSkipsDiffusion(t *testing.T) {
	e := testEngine(t)
	req := &ClusterRequest{Graph: "test", Algo: "hkpr", Seeds: []uint32{5}}
	first, err := e.Cluster(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ranOnce := e.Stats().Diffusions
	if ranOnce == 0 {
		t.Fatal("first query should run a diffusion")
	}
	second, err := e.Cluster(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Diffusions; got != ranOnce {
		t.Fatalf("repeat query ran a diffusion: count %d -> %d", ranOnce, got)
	}
	if !second.Results[0].Cached || second.Aggregate.CacheHits != 1 {
		t.Fatalf("repeat result not marked cached: %+v", second.Results[0])
	}
	if first.Results[0].Cached {
		t.Fatal("first result must not be marked cached")
	}
	if first.Results[0].Conductance != second.Results[0].Conductance ||
		first.Results[0].Size != second.Results[0].Size {
		t.Fatal("cached result differs from the original")
	}
	if st := e.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats hits/misses = %d/%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

func TestEngineNoCache(t *testing.T) {
	e := testEngine(t)
	req := &ClusterRequest{Graph: "test", Seeds: []uint32{5}, NoCache: true}
	if _, err := e.Cluster(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Cluster(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Diffusions; got != 2 {
		t.Fatalf("no_cache repeat ran %d diffusions, want 2", got)
	}
	// Bypassed lookups must not skew the hit-rate counters.
	if st := e.Stats(); st.CacheMisses != 0 || st.CacheHits != 0 {
		t.Fatalf("no_cache requests counted as lookups: hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}
}

func TestEngineAllAlgos(t *testing.T) {
	e := testEngine(t)
	for _, algo := range []string{"nibble", "prnibble", "hkpr", "randhk", "evolving"} {
		resp, err := e.Cluster(context.Background(), &ClusterRequest{
			Graph: "test", Algo: algo, Seeds: []uint32{30},
		})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if r := resp.Results[0]; r.Size == 0 || r.Conductance > 1 {
			t.Fatalf("%s: size=%d phi=%g", algo, r.Size, r.Conductance)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()
	cases := []struct {
		name string
		req  ClusterRequest
		want error
	}{
		{"empty seeds", ClusterRequest{Graph: "test"}, ErrBadRequest},
		{"bad algo", ClusterRequest{Graph: "test", Algo: "dijkstra", Seeds: []uint32{0}}, ErrBadRequest},
		{"unknown graph", ClusterRequest{Graph: "nope", Seeds: []uint32{0}}, ErrUnknownGraph},
		{"seed out of range", ClusterRequest{Graph: "test", Seeds: []uint32{1 << 20}}, ErrBadRequest},
		{"evolving seed set", ClusterRequest{Graph: "test", Algo: "evolving", Seeds: []uint32{0, 1}, SeedSet: true}, ErrBadRequest},
		{"oversized batch", ClusterRequest{Graph: "test", Seeds: make([]uint32, maxSeedsPerRequest+1)}, ErrBadRequest},
	}
	for _, tc := range cases {
		if _, err := e.Cluster(ctx, &tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if st := e.Stats(); st.Errors != int64(len(cases)) {
		t.Fatalf("error counter = %d, want %d", st.Errors, len(cases))
	}
}

func TestEngineMaxMembers(t *testing.T) {
	e := testEngine(t)
	req := &ClusterRequest{Graph: "test", Seeds: []uint32{0}, MaxMembers: 3}
	resp, err := e.Cluster(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Results[0]
	if len(r.Members) != 3 || !r.Truncated || r.Size <= 3 {
		t.Fatalf("truncation wrong: members=%d truncated=%t size=%d", len(r.Members), r.Truncated, r.Size)
	}
	// The cached entry must keep the full member list.
	full, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	if fr := full.Results[0]; !fr.Cached || len(fr.Members) != fr.Size {
		t.Fatalf("cached full result truncated: cached=%t members=%d size=%d", fr.Cached, len(fr.Members), fr.Size)
	}
}

func TestEngineNCP(t *testing.T) {
	e := testEngine(t)
	resp, err := e.NCP(context.Background(), &NCPRequest{
		Graph:        "test",
		SeedVertices: []uint32{0, 24, 48},
		Alphas:       []float64{0.01},
		Epsilons:     []float64{1e-6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Points) == 0 {
		t.Fatal("NCP returned no points")
	}
	for i := 1; i < len(resp.Points); i++ {
		if resp.Points[i].Size <= resp.Points[i-1].Size {
			t.Fatal("points not sorted by size")
		}
	}
	if _, err := e.NCP(context.Background(), &NCPRequest{Graph: "test", SeedVertices: []uint32{1 << 20}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("out-of-range seed vertex: err = %v, want ErrBadRequest", err)
	}
	if _, err := e.NCP(context.Background(), &NCPRequest{Graph: "test", Alphas: []float64{7}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad alpha: err = %v, want ErrBadRequest", err)
	}
	if _, err := e.NCP(context.Background(), &NCPRequest{Graph: "test", Seeds: maxNCPRuns + 1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized seed count: err = %v, want ErrBadRequest", err)
	}
}

func TestEngineNCPCancellation(t *testing.T) {
	e := testEngine(t)
	if _, err := e.reg.Get(context.Background(), "test"); err != nil {
		t.Fatal(err) // preload so the cancelled context can't fail the load
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A profile over the full seed budget would run for a long time; with
	// the context already cancelled it must stop at the first seed boundary
	// and report the cancellation, not a partial profile.
	_, err := e.NCP(ctx, &NCPRequest{Graph: "test", Seeds: maxNCPRuns})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestEngineLargeBatchBoundedFanout(t *testing.T) {
	e := testEngine(t)
	// A batch far wider than the worker pool must complete without a
	// goroutine per seed; same seed repeated also exercises hit-after-miss.
	seeds := make([]uint32, 200)
	for i := range seeds {
		seeds[i] = uint32(i % 8)
	}
	resp, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 200 {
		t.Fatalf("results = %d, want 200", len(resp.Results))
	}
	for i, r := range resp.Results {
		if len(r.Seeds) != 1 || r.Seeds[0] != seeds[i] {
			t.Fatalf("result %d out of order: seeds = %v, want [%d]", i, r.Seeds, seeds[i])
		}
		if r.Size == 0 {
			t.Fatalf("result %d empty", i)
		}
	}
	// 8 distinct seeds: exactly 8 diffusions — concurrent duplicates within
	// the batch coalesce onto the first computation of each key.
	if got := e.Stats().Diffusions; got != 8 {
		t.Fatalf("ran %d diffusions for 8 distinct seeds, want 8 (stampede?)", got)
	}
	if _, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: seeds}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Diffusions; got != 8 {
		t.Fatalf("warm repeat ran extra diffusions: %d total", got)
	}
}

func TestEngineConcurrentIdenticalQueriesCoalesce(t *testing.T) {
	e := testEngine(t)
	const clients = 16
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := e.Cluster(context.Background(), &ClusterRequest{
				Graph: "test", Algo: "hkpr", Seeds: []uint32{9},
			})
			if err != nil {
				t.Error(err)
				return
			}
			if resp.Results[0].Size == 0 {
				t.Error("empty result")
			}
		}()
	}
	wg.Wait()
	if got := e.Stats().Diffusions; got != 1 {
		t.Fatalf("%d identical concurrent queries ran %d diffusions, want 1", clients, got)
	}
}

func TestEngineResolveProcs(t *testing.T) {
	e := testEngine(t) // ProcBudget 4, MaxProcsPerQuery defaults to 4
	for in, want := range map[int]int{0: 4, -1: 4, 2: 2, 4: 4, 99: 4} {
		if got := e.resolveProcs(in); got != want {
			t.Errorf("resolveProcs(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestEngineFrontierModes(t *testing.T) {
	e := testEngine(t)
	ctx := context.Background()

	// Default mode (auto) counts under "auto".
	if _, err := e.Cluster(ctx, &ClusterRequest{Graph: "test", Seeds: []uint32{0}}); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.FrontierModes.Auto != 1 || s.FrontierModes.Sparse != 0 || s.FrontierModes.Dense != 0 {
		t.Fatalf("mode counts after auto query: %+v", s.FrontierModes)
	}

	// Per-request override runs (and counts) under the requested mode, and
	// returns the same cluster: mode is representation-only, so it shares
	// the cache key — force a fresh run with NoCache.
	base, err := e.Cluster(ctx, &ClusterRequest{Graph: "test", Seeds: []uint32{0}})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := e.Cluster(ctx, &ClusterRequest{
		Graph: "test", Seeds: []uint32{0}, NoCache: true,
		Params: Params{Frontier: "dense"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dense.Results[0].Size != base.Results[0].Size ||
		dense.Results[0].Conductance != base.Results[0].Conductance {
		t.Fatalf("dense mode changed the result: %+v vs %+v", dense.Results[0], base.Results[0])
	}
	sparse, err := e.Cluster(ctx, &ClusterRequest{
		Graph: "test", Seeds: []uint32{0}, NoCache: true,
		Params: Params{Frontier: "sparse"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sparse.Results[0].Size != base.Results[0].Size {
		t.Fatalf("sparse mode changed the result")
	}
	s = e.Stats()
	if s.FrontierModes.Dense != 1 || s.FrontierModes.Sparse != 1 || s.FrontierModes.Auto != 1 {
		t.Fatalf("mode counts after overrides: %+v", s.FrontierModes)
	}

	// A same-key cached request runs no diffusion and counts nothing.
	if _, err := e.Cluster(ctx, &ClusterRequest{Graph: "test", Seeds: []uint32{0}}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().FrontierModes; got != s.FrontierModes {
		t.Fatalf("cache hit changed mode counts: %+v vs %+v", got, s.FrontierModes)
	}

	// rand-HK-PR never touches the frontier engine, so it must not count.
	if _, err := e.Cluster(ctx, &ClusterRequest{
		Graph: "test", Seeds: []uint32{0}, Algo: "randhk",
		Params: Params{Walks: 1000, Frontier: "dense"},
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().FrontierModes; got != s.FrontierModes {
		t.Fatalf("randhk changed mode counts: %+v vs %+v", got, s.FrontierModes)
	}

	// Invalid mode is a bad request.
	if _, err := e.Cluster(ctx, &ClusterRequest{
		Graph: "test", Seeds: []uint32{0}, Params: Params{Frontier: "bitmap"},
	}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("invalid frontier mode error = %v, want ErrBadRequest", err)
	}
}
