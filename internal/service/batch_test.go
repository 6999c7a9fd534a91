package service

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
)

// batchTestEngine builds an engine over the caveman test graph with the
// given lane width (0 disables the batching planner).
func batchTestEngine(t *testing.T, procs, lanes int) *Engine {
	t.Helper()
	reg := NewRegistry(2, false)
	if err := reg.RegisterSpec("test", "caveman:cliques=16,k=12"); err != nil {
		t.Fatal(err)
	}
	return NewEngine(reg, Config{ProcBudget: procs, CacheSize: 64, BatchLanes: lanes})
}

// TestBatchedMatchesFanout pins the pipeline's core promise: a multi-seed
// request answered through shared-traversal lanes is byte-identical to the
// same request run one diffusion per unit — results (Cached flags
// included), statistics and aggregate alike. Lane width 8 against 20 seeds
// forces three groups, one of them partial. Beyond the all-miss list, a
// NoCache request (every unit a fresh lane, no coalescing) and a list that
// mixes cache hits (seeds 9 and 27, warmed beforehand; seed 0 again in a
// later group), in-group duplicates and misses walk every lookup outcome.
func TestBatchedMatchesFanout(t *testing.T) {
	distinct := make([]uint32, 20)
	for i := range distinct {
		distinct[i] = uint32(i * 9)
	}
	mixed := []uint32{
		0, 9, 18, 0, 27, 36, 45, 18, // lanes 0 18 36 45; 9 27 cached; 0 18 repeated
		54, 9, 63, 63, 72, 81, 0, 90, // lanes 54 63 72 81 90; 0 cached by the first group
		99, 27, 108, 108, // lanes 99 108
	}
	cases := []struct {
		name          string
		warm, seeds   []uint32
		noCache       bool
		lanes, warmed int64 // lanes the request fills, diffusions spent warming
	}{
		{name: "distinct", seeds: distinct, lanes: 20},
		{name: "no-cache", warm: []uint32{9, 27}, seeds: mixed, noCache: true, lanes: 20, warmed: 2},
		{name: "mixed", warm: []uint32{9, 27}, seeds: mixed, lanes: 11, warmed: 2},
	}
	for _, algo := range []string{"prnibble", "nibble"} {
		for _, tc := range cases {
			name := algo + "/" + tc.name
			batched := batchTestEngine(t, 1, 8)
			fanout := batchTestEngine(t, 1, 0)
			run := func(e *Engine) *ClusterResponse {
				for _, s := range tc.warm { // single seeds never batch
					if _, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Algo: algo, Seeds: []uint32{s}}); err != nil {
						t.Fatal(err)
					}
				}
				resp, err := e.Cluster(context.Background(), &ClusterRequest{
					Graph: "test", Algo: algo, Seeds: append([]uint32(nil), tc.seeds...), NoCache: tc.noCache,
				})
				if err != nil {
					t.Fatal(err)
				}
				return resp
			}
			want, got := run(fanout), run(batched)
			wantJSON, _ := json.Marshal(want.Results)
			gotJSON, _ := json.Marshal(got.Results)
			if string(wantJSON) != string(gotJSON) {
				t.Fatalf("%s: batched results differ from fan-out\nfanout:  %s\nbatched: %s", name, wantJSON, gotJSON)
			}
			want.Aggregate.ElapsedMS, got.Aggregate.ElapsedMS = 0, 0 // wall time, the one legitimate difference
			wantAgg, _ := json.Marshal(want.Aggregate)
			gotAgg, _ := json.Marshal(got.Aggregate)
			if string(wantAgg) != string(gotAgg) {
				t.Fatalf("%s: aggregates differ\nfanout:  %s\nbatched: %s", name, wantAgg, gotAgg)
			}

			st, fst := batched.Stats(), fanout.Stats()
			if st.Batch.Groups != 3 || st.Batch.LanesFilled != tc.lanes || st.Batch.TraversalsSaved != tc.lanes-3 {
				t.Fatalf("%s: batch counters = %+v, want 3 groups / %d lanes / %d saved", name, st.Batch, tc.lanes, tc.lanes-3)
			}
			if st.Diffusions != tc.warmed+tc.lanes {
				t.Fatalf("%s: diffusions = %d, want %d (one per lane)", name, st.Diffusions, tc.warmed+tc.lanes)
			}
			if fst.Batch.Groups != 0 || fst.Batch.LanesFilled != 0 {
				t.Fatalf("%s: fan-out engine ran the planner: %+v", name, fst.Batch)
			}
			if st.Diffusions != fst.Diffusions || st.CacheHits != fst.CacheHits || st.CacheMisses != fst.CacheMisses {
				t.Fatalf("%s: counters differ: batched %d diffusions / %d hits / %d misses, fan-out %d / %d / %d", name,
					st.Diffusions, st.CacheHits, st.CacheMisses, fst.Diffusions, fst.CacheHits, fst.CacheMisses)
			}
		}
	}
}

// TestBatchingParamOverride pins the per-request opt-out and its
// validation: batching="off" routes an otherwise eligible request through
// fan-out, and an unknown value is a 400.
func TestBatchingParamOverride(t *testing.T) {
	e := batchTestEngine(t, 4, 64)
	req := &ClusterRequest{Graph: "test", Seeds: []uint32{0, 12, 24}, Params: Params{Batching: "off"}}
	if _, err := e.Cluster(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Batch.Groups != 0 {
		t.Fatalf("batching=off still ran the planner: %+v", st.Batch)
	}
	req.Params.Batching = "on"
	req.NoCache = true
	if _, err := e.Cluster(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Batch.Groups != 1 || st.Batch.LanesFilled != 3 {
		t.Fatalf("batching=on did not run the planner: %+v", st.Batch)
	}
	req.Params.Batching = "sideways"
	if _, err := e.Cluster(context.Background(), req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("bad batching value = %v, want ErrBadRequest", err)
	}
}

// TestBatchPopulatesCachePerSeed pins the cache interplay: every lane of a
// batched request stores its result under the same lane-independent key a
// fan-out unit would use, so later single-seed requests (which never touch
// the planner) are pure cache hits — and a pre-warmed seed occupies no lane.
func TestBatchPopulatesCachePerSeed(t *testing.T) {
	e := batchTestEngine(t, 4, 64)
	// Pre-warm seed 36 through the fan-out path (single units never batch).
	if _, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: []uint32{36}}); err != nil {
		t.Fatal(err)
	}
	seeds := []uint32{0, 12, 24, 36, 48, 60, 72, 84}
	resp, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Results {
		if want := seeds[i] == 36; r.Cached != want {
			t.Fatalf("result %d (seed %d): Cached = %t, want %t", i, seeds[i], r.Cached, want)
		}
	}
	if st := e.Stats(); st.Batch.LanesFilled != 7 {
		t.Fatalf("pre-warmed seed occupied a lane: %+v", st.Batch)
	}
	ran := e.Stats().Diffusions
	for _, s := range seeds {
		resp, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: []uint32{s}})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Results[0].Cached {
			t.Fatalf("seed %d: batched run did not populate the cache", s)
		}
	}
	if got := e.Stats().Diffusions; got != ran {
		t.Fatalf("single-seed follow-ups re-ran diffusions: %d -> %d", ran, got)
	}
}

// TestBatchDuplicateSeedsShareLane pins within-group key dedup: duplicate
// seeds collapse onto one lane, the extra units are served copies marked
// Cached, and all copies carry the leader's exact result.
func TestBatchDuplicateSeedsShareLane(t *testing.T) {
	e := batchTestEngine(t, 4, 64)
	resp, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: []uint32{5, 17, 5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Batch.LanesFilled != 2 {
		t.Fatalf("lanes filled = %d, want 2 (duplicates share a lane)", st.Batch.LanesFilled)
	}
	first := resp.Results[0]
	if first.Cached {
		t.Fatal("leader result marked Cached")
	}
	for _, i := range []int{2, 3} {
		r := resp.Results[i]
		if !r.Cached {
			t.Fatalf("duplicate result %d not marked Cached", i)
		}
		if r.Size != first.Size || r.Conductance != first.Conductance {
			t.Fatalf("duplicate result %d differs from leader: %+v vs %+v", i, r, first)
		}
	}
}

// TestBatchCancelledStream exercises the planner's failure path: a stream
// cancelled by its consumer must fail or complete cleanly (channel closed) and leave the engine healthy for the next request.
func TestBatchCancelledStream(t *testing.T) {
	e := batchTestEngine(t, 4, 64)
	ctx, cancel := context.WithCancel(context.Background())
	seeds := make([]uint32, 64)
	for i := range seeds {
		seeds[i] = uint32(i * 3)
	}
	st, err := e.StreamCluster(ctx, &ClusterRequest{Graph: "test", Seeds: seeds, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for {
		if _, _, ok := st.Next(); !ok {
			break
		}
	}
	st.Close()
	if err := st.Err(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled stream Err = %v", err)
	}
	// The engine must still answer cleanly after the cancelled batch.
	if _, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Seeds: []uint32{1, 2, 3}}); err != nil {
		t.Fatalf("engine unhealthy after cancelled batch: %v", err)
	}
}
