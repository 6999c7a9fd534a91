package core

// batch_test.go is the property suite for the bit-parallel batched
// diffusions: per-lane results must match the unbatched kernels — bit for
// bit against a FrontierDense procs=1 run when the batch itself runs one
// worker, and to within accumulation-order tolerance when it runs several —
// across frontier modes, worker counts, and lane counts {1, 7, 64}; lanes
// must terminate and cancel independently; and per-lane mass conservation
// must hold just like the unbatched PR-Nibble invariant.

import (
	"fmt"
	"math"
	"testing"

	"parcluster/internal/graph"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// laneSeeds builds count seed sets over g's positive-degree vertices; every
// third lane gets a two-seed set so batches mix seed-set sizes.
func laneSeeds(t *testing.T, g *graph.CSR, count int) [][]uint32 {
	t.Helper()
	var pos []uint32
	for v := 0; v < g.NumVertices(); v++ {
		if g.Degree(uint32(v)) > 0 {
			pos = append(pos, uint32(v))
		}
	}
	if len(pos) == 0 {
		t.Fatal("graph has no positive-degree vertex")
	}
	out := make([][]uint32, count)
	for l := range out {
		s := pos[l%len(pos)]
		if l%3 == 2 {
			out[l] = []uint32{s, pos[(l+7)%len(pos)]}
		} else {
			out[l] = []uint32{s}
		}
	}
	return out
}

func unitsFor(seeds [][]uint32) []BatchUnit {
	units := make([]BatchUnit, len(seeds))
	for l, s := range seeds {
		units[l] = BatchUnit{Seeds: s}
	}
	return units
}

// requireLaneMatches compares one batched lane against its unbatched
// reference. A procs=1 batch reproduces the unbatched dense run's
// floating-point addition order exactly, so the comparison is bit-for-bit
// (values and sweep). With several workers, cross-chunk accumulation order
// for a shared destination vertex is scheduling-dependent — in the batched
// and unbatched traversals alike — so values are compared to within
// accumulation-order tolerance; Stats stay exact in every configuration.
func requireLaneMatches(t *testing.T, label string, g *graph.CSR, procs int, want, got *sparse.Map, wantSt, gotSt Stats) {
	t.Helper()
	if wantSt != gotSt {
		t.Fatalf("%s: stats %+v != %+v", label, wantSt, gotSt)
	}
	if procs == 1 {
		requireMapsIdentical(t, label, want, got)
		requireSweepsIdentical(t, label, SweepCutSeq(g, want), SweepCutSeq(g, got))
		return
	}
	if ok, why := vectorsClose(want, got, 1e-9); !ok {
		t.Fatalf("%s: %s", label, why)
	}
}

// batchConfigs is the mode × procs matrix: every frontier mode runs the
// strict bit-identity comparison at one worker; multi-worker runs stick to
// the auto mode (the shipped configuration) and the tolerance comparison,
// keeping the suite affordable under the race detector.
var batchConfigs = []struct {
	mode  FrontierMode
	procs int
}{
	{FrontierAuto, 1},
	{FrontierSparse, 1},
	{FrontierDense, 1},
	{FrontierAuto, 2},
	{FrontierAuto, 8},
}

// batchGraphs mirrors propertyGraphs with er-512 swapped for an er-256 that
// still overflows one edgeMapGrain chunk (vol ≈ 2.5k), so chunked parallel
// traversals are exercised without dominating the suite's race-mode budget.
func batchGraphs(t *testing.T) map[string]*graph.CSR {
	t.Helper()
	gs := propertyGraphs(t)
	delete(gs, "er-512")
	gs["er-256"] = erdosRenyi(256, 10, 3)
	return gs
}

func TestPropertyBatchedMatchesUnbatched(t *testing.T) {
	laneCounts := []int{1, 7, 64}
	for name, g := range batchGraphs(t) {
		for _, lanes := range laneCounts {
			seeds := laneSeeds(t, g, lanes)
			ref := RunConfig{Procs: 1, Frontier: FrontierDense}
			wantPR := make([]*sparse.Map, lanes)
			wantPRSt := make([]Stats, lanes)
			wantNib := make([]*sparse.Map, lanes)
			wantNibSt := make([]Stats, lanes)
			for l := 0; l < lanes; l++ {
				wantPR[l], wantPRSt[l] = PRNibbleRun(g, seeds[l], 0.05, 1e-6, OptimizedRule, 1, ref)
				wantNib[l], wantNibSt[l] = NibbleRun(g, seeds[l], 1e-7, 15, ref)
			}
			for _, bc := range batchConfigs {
				cfg := BatchConfig{Procs: bc.procs, Frontier: bc.mode}
				vecs, sts := PRNibbleBatch(g, unitsFor(seeds), 0.05, 1e-6, OptimizedRule, cfg)
				for l := 0; l < lanes; l++ {
					label := fmt.Sprintf("prnibble/%s/lanes=%d/%v/procs=%d/lane=%d", name, lanes, bc.mode, bc.procs, l)
					requireLaneMatches(t, label, g, bc.procs, wantPR[l], vecs[l], wantPRSt[l], sts[l])
				}
				vecs, sts = NibbleBatch(g, unitsFor(seeds), 1e-7, 15, cfg)
				for l := 0; l < lanes; l++ {
					label := fmt.Sprintf("nibble/%s/lanes=%d/%v/procs=%d/lane=%d", name, lanes, bc.mode, bc.procs, l)
					requireLaneMatches(t, label, g, bc.procs, wantNib[l], vecs[l], wantNibSt[l], sts[l])
				}
			}
		}
	}
}

// TestBatchLaneResultsOwned runs two batch generations through one shared pool —
// the way the service runs batches — and checks every lane's vector is
// memory the caller owns: a generation's answers still match the unbatched
// kernel after the next generation recycled the pooled batch workspace.
func TestBatchLaneResultsOwned(t *testing.T) {
	g := erdosRenyi(256, 8, 11)
	const lanes = 9
	seeds := laneSeeds(t, g, lanes)
	want := make([]*sparse.Map, lanes)
	wantSt := make([]Stats, lanes)
	ref := RunConfig{Procs: 1, Frontier: FrontierDense}
	for l := range want {
		want[l], wantSt[l] = PRNibbleRun(g, seeds[l], 0.05, 1e-6, OptimizedRule, 1, ref)
	}
	pool := workspace.NewPool(g.NumVertices())
	var gens [2][]*sparse.Map
	var genSts [2][]Stats
	for round := range gens {
		gens[round], genSts[round] = PRNibbleBatch(g, unitsFor(seeds), 0.05, 1e-6, OptimizedRule,
			BatchConfig{Procs: 1, Workspace: pool})
	}
	for round := range gens {
		for l := 0; l < lanes; l++ {
			label := fmt.Sprintf("round=%d/lane=%d", round, l)
			requireLaneMatches(t, label, g, 1, want[l], gens[round][l], wantSt[l], genSts[round][l])
		}
	}
	st := pool.Stats()
	if round2Hits := st.BatchHits; round2Hits == 0 {
		t.Fatalf("second batch did not reuse the pooled batch workspace: %+v", st)
	}
}

// roundCanceller is an Observer that closes a cancel channel once its lane
// has run the given number of rounds.
type roundCanceller struct {
	after  int
	cancel chan struct{}
}

func (rc *roundCanceller) Round(round, frontier int, pushes, edges int64, dense bool) {
	if round+1 == rc.after {
		close(rc.cancel)
	}
}

// TestBatchPerLaneCancellation cancels individual lanes — one before the
// batch starts, one mid-run via its own Observer — and checks the cancelled
// lanes stop with partial results while every sibling lane's output stays
// exactly what the unbatched kernel produces. Run under -race this also
// pins down that lane retirement does not race with the shared traversal.
func TestBatchPerLaneCancellation(t *testing.T) {
	g := erdosRenyi(256, 8, 7)
	const lanes = 8
	seeds := laneSeeds(t, g, lanes)
	want := make([]*sparse.Map, lanes)
	wantSt := make([]Stats, lanes)
	ref := RunConfig{Procs: 1, Frontier: FrontierDense}
	for l := range want {
		want[l], wantSt[l] = PRNibbleRun(g, seeds[l], 0.05, 1e-6, OptimizedRule, 1, ref)
	}
	for _, procs := range []int{1, 4} {
		units := unitsFor(seeds)
		pre := make(chan struct{})
		close(pre)
		units[2].Cancel = pre // cancelled before the first round
		mid := &roundCanceller{after: 2, cancel: make(chan struct{})}
		units[5].Cancel = mid.cancel // cancelled after its second round
		units[5].Observer = mid
		vecs, sts := PRNibbleBatch(g, units, 0.05, 1e-6, OptimizedRule, BatchConfig{Procs: procs})
		if sts[2].Iterations != 0 || vecs[2].Len() != 0 {
			t.Fatalf("procs=%d: pre-cancelled lane ran: %+v, support %d", procs, sts[2], vecs[2].Len())
		}
		if sts[5].Iterations != 2 {
			t.Fatalf("procs=%d: mid-cancelled lane ran %d rounds, want 2", procs, sts[5].Iterations)
		}
		if wantSt[5].Iterations <= 2 {
			t.Fatalf("reference lane 5 finished in %d rounds; cancellation not exercised", wantSt[5].Iterations)
		}
		for l := 0; l < lanes; l++ {
			if l == 2 || l == 5 {
				continue
			}
			label := fmt.Sprintf("procs=%d/lane=%d", procs, l)
			requireLaneMatches(t, label, g, procs, want[l], vecs[l], wantSt[l], sts[l])
		}
	}
}

// TestBatchGroupCancellation fires the batch-wide cancel channel before the
// first round: every lane must come back with a partial (empty) vector and
// zero rounds, like an unbatched run cancelled up front.
func TestBatchGroupCancellation(t *testing.T) {
	g := erdosRenyi(128, 8, 3)
	seeds := laneSeeds(t, g, 5)
	done := make(chan struct{})
	close(done)
	vecs, sts := PRNibbleBatch(g, unitsFor(seeds), 0.05, 1e-6, OptimizedRule,
		BatchConfig{Procs: 2, Cancel: done})
	for l := range vecs {
		if sts[l].Iterations != 0 || vecs[l].Len() != 0 {
			t.Fatalf("lane %d ran after group cancel: %+v, support %d", l, sts[l], vecs[l].Len())
		}
	}
}

// TestPropertyBatchMassConservation checks the PR-Nibble invariant lane by
// lane: within one batch, every lane's final ‖p‖₁ + ‖r‖₁ must not exceed
// its initial unit of probability mass.
func TestPropertyBatchMassConservation(t *testing.T) {
	defer func() { prNibbleBatchResidualSink = nil }()
	for name, g := range propertyGraphs(t) {
		const lanes = 16
		seeds := laneSeeds(t, g, lanes)
		residuals := make([]*sparse.Map, lanes)
		prNibbleBatchResidualSink = func(lane int, r *sparse.Map) { residuals[lane] = r }
		vecs, _ := PRNibbleBatch(g, unitsFor(seeds), 0.05, 1e-6, OptimizedRule,
			BatchConfig{Procs: 4})
		for l := 0; l < lanes; l++ {
			if residuals[l] == nil {
				t.Fatalf("%s: lane %d residual sink never fired", name, l)
			}
			mass := vecs[l].Sum() + residuals[l].Sum()
			if mass > 1+1e-9 || math.IsNaN(mass) {
				t.Fatalf("%s: lane %d mass %v exceeds initial unit", name, l, mass)
			}
		}
	}
}

// TestBatchLaneCap checks the 64-lane capacity is enforced.
func TestBatchLaneCap(t *testing.T) {
	g := erdosRenyi(32, 4, 1)
	units := make([]BatchUnit, MaxBatchLanes+1)
	for l := range units {
		units[l] = BatchUnit{Seeds: []uint32{firstSeed(t, g)}}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PRNibbleBatch accepted more than MaxBatchLanes units")
		}
	}()
	PRNibbleBatch(g, units, 0.05, 1e-6, OptimizedRule, BatchConfig{Procs: 1})
}
