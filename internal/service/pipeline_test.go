package service

// pipeline_test.go pins the two places where request.runGroup's behaviour
// depends on what happens around it rather than on its inputs: what a
// cancelled kernel tells the scheduler (nothing), and what a group does when
// another request is already computing one of its keys (a lone unit waits
// for that result, a lane group never does).

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"parcluster/internal/sched"
)

// eventually spins until cond holds, failing the test with what after ten
// seconds. The tests below use it only to observe that a goroutine has
// reached a state some held resource keeps it in — never to let time pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

// endlessNibble is a Nibble run that cannot finish on its own within a test:
// with nothing truncated the walk keeps the whole caveman graph in its
// frontier for the full iteration cap.
var endlessNibble = Params{Epsilon: minEpsilon, T: maxIterations}

// TestCancelledRunsDoNotTeachScheduler cancels a request while its kernel is
// running — a width-1 unit, a full 64-lane group, an NCP profile — and
// checks that the scheduler learned nothing from the truncated run: the
// class's Completed ("finished kernels") has not advanced, no (graph, algo)
// service model exists for a pair whose only run was cancelled, and every
// token is back.
func TestCancelledRunsDoNotTeachScheduler(t *testing.T) {
	lanes := make([]uint32, 64)
	for i := range lanes {
		lanes[i] = uint32(i * 3)
	}
	for _, tc := range []struct {
		name  string
		width int
		seeds []uint32
	}{
		{"width-1", 0, []uint32{5}},
		{"64-lane", 64, lanes},
	} {
		e := batchTestEngine(t, 1, tc.width)
		ctx, cancel := context.WithCancel(context.Background())
		st, err := e.StreamCluster(ctx, &ClusterRequest{
			Graph: "test", Algo: "nibble", Seeds: tc.seeds, NoCache: true, Params: endlessNibble,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(len(tc.seeds)) // counted once the group holds its tokens, just before its kernel starts
		eventually(t, tc.name+" kernel start", func() bool { return e.diffusions.Load() == want })
		cancel()
		for {
			if _, _, ok := st.Next(); !ok {
				break
			}
		}
		st.Close()
		if !errors.Is(st.Err(), context.Canceled) {
			t.Fatalf("%s: stream Err = %v, want context.Canceled (did the kernel finish?)", tc.name, st.Err())
		}
		requireNothingLearned(t, tc.name, e)
		if tc.width > 1 && e.Stats().Batch.LanesFilled != want {
			t.Fatalf("%s: the request did not run as a lane group: %+v", tc.name, e.Stats().Batch)
		}
		// A run that does finish still teaches: one unit, one model.
		if _, err := e.Cluster(context.Background(), &ClusterRequest{Graph: "test", Algo: "nibble", Seeds: []uint32{5}}); err != nil {
			t.Fatal(err)
		}
		if sc := e.Stats().Sched; sc.Interactive.Completed != 1 || sc.ServiceModels != 1 {
			t.Fatalf("%s: after a finished run: completed %d, models %d; want 1 and 1", tc.name, sc.Interactive.Completed, sc.ServiceModels)
		}
	}

	// An NCP whose context is already cancelled still gets its tokens (an
	// idle scheduler grants without queueing) and stops at the first seed.
	e := batchTestEngine(t, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.NCP(ctx, &NCPRequest{Graph: "test", Seeds: 50}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ncp: err = %v, want context.Canceled", err)
	}
	requireNothingLearned(t, "ncp", e)
}

func requireNothingLearned(t *testing.T, name string, e *Engine) {
	t.Helper()
	sc := e.Stats().Sched
	for class, cs := range map[string]int64{"interactive": sc.Interactive.Completed, "batch": sc.Batch.Completed} {
		if cs != 0 {
			t.Fatalf("%s: %s completed = %d after a cancelled run, want 0", name, class, cs)
		}
	}
	if sc.ServiceModels != 0 {
		t.Fatalf("%s: %d service models after a cancelled run, want none", name, sc.ServiceModels)
	}
	if sc.Avail != sc.Tokens {
		t.Fatalf("%s: %d of %d tokens back", name, sc.Avail, sc.Tokens)
	}
}

// holdTokens takes the engine's whole token budget on behalf of nobody, so
// that every request admitted afterwards walks the pipeline up to the token
// gate and parks there until the returned release runs.
func holdTokens(t *testing.T, e *Engine) (release func()) {
	t.Helper()
	ticket, err := e.sched.Admit(sched.Background, "held", "held", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	grant, err := ticket.Acquire(context.Background(), e.sched.Tokens())
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		grant.Abandon()
		ticket.Close()
	}
}

// queued reports how many interactive units are parked at the token gate.
func queued(e *Engine) int { return e.sched.Stats().Classes[sched.Interactive].QueueDepth }

// clusterAsync runs one request on its own goroutine.
func clusterAsync(ctx context.Context, e *Engine, seeds ...uint32) <-chan result {
	out := make(chan result, 1)
	go func() {
		resp, err := e.Cluster(ctx, &ClusterRequest{Graph: "test", Seeds: seeds})
		out <- result{resp, err}
	}()
	return out
}

type result struct {
	resp *ClusterResponse
	err  error
}

// TestLoneUnitJoinsForeignFlight: a width-1 unit whose key another request
// is already computing is answered from that computation — Cached, with no
// second diffusion — once the leader finishes. The leader is held at the
// token gate (flight registered, nothing computed) while the follower
// arrives, so the follower can neither hit the cache nor lead.
func TestLoneUnitJoinsForeignFlight(t *testing.T) {
	e := batchTestEngine(t, 1, 64)
	release := holdTokens(t, e)
	leader := clusterAsync(context.Background(), e, 5)
	eventually(t, "the leader to queue for tokens", func() bool { return queued(e) == 1 })
	follower := clusterAsync(context.Background(), e, 5)
	eventually(t, "the follower to be admitted", func() bool { return e.queries.Load() == 2 })
	if n := queued(e); n != 1 {
		t.Fatalf("%d units at the token gate, want only the leader", n)
	}
	release()
	l, f := <-leader, <-follower
	if l.err != nil || f.err != nil {
		t.Fatal(l.err, f.err)
	}
	if l.resp.Results[0].Cached || !f.resp.Results[0].Cached {
		t.Fatalf("cached flags: leader %t, follower %t; want false, true", l.resp.Results[0].Cached, f.resp.Results[0].Cached)
	}
	if f.resp.Results[0].Size != l.resp.Results[0].Size || f.resp.Results[0].Conductance != l.resp.Results[0].Conductance {
		t.Fatalf("follower's answer differs from the leader's: %+v vs %+v", f.resp.Results[0], l.resp.Results[0])
	}
	if st := e.Stats(); st.Diffusions != 1 || st.CacheMisses != 1 || st.CacheHits != 1 {
		t.Fatalf("diffusions %d, misses %d, hits %d; want 1, 1, 1", st.Diffusions, st.CacheMisses, st.CacheHits)
	}
}

// TestLaneGroupNeverWaitsOnForeignFlight: a multi-seed lane request that
// contains a key another request is computing does not park on that flight
// — it would stall its sibling lanes on the other request's schedule. With
// the flight's leader stuck at the token gate, the group shows up at the
// gate as well (parked on the flight it could never get there); the leader
// is then cancelled, so the only run of the shared key is the group's own
// lane, which must still store it.
func TestLaneGroupNeverWaitsOnForeignFlight(t *testing.T) {
	e := batchTestEngine(t, 1, 64)
	release := holdTokens(t, e)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leader := clusterAsync(leaderCtx, e, 5)
	eventually(t, "the leader to queue for tokens", func() bool { return queued(e) == 1 })
	group := clusterAsync(context.Background(), e, 5, 17, 29)
	eventually(t, "the lane group to queue for tokens", func() bool { return queued(e) == 2 })
	cancelLeader()
	if l := <-leader; !errors.Is(l.err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", l.err)
	}
	release()
	g := <-group
	if g.err != nil {
		t.Fatal(g.err)
	}
	for i, r := range g.resp.Results {
		if r.Cached || r.Size == 0 {
			t.Fatalf("result %d: %+v, want a fresh non-empty run", i, r)
		}
	}
	if st := e.Stats(); st.Diffusions != 3 || st.Batch.Groups != 1 || st.Batch.LanesFilled != 3 {
		t.Fatalf("diffusions %d, batch %+v; want 3 diffusions in one 3-lane group", st.Diffusions, st.Batch)
	}
	again := <-clusterAsync(context.Background(), e, 5)
	if again.err != nil || !again.resp.Results[0].Cached || e.Stats().Diffusions != 3 {
		t.Fatalf("the group's lane did not store the shared key: err %v, diffusions %d", again.err, e.Stats().Diffusions)
	}
}
