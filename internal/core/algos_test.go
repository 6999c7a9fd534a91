package core

import (
	"math"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

// vectorsClose reports whether two sparse vectors agree entry-wise within a
// relative tolerance (parallel float accumulation reorders additions).
func vectorsClose(a, b *sparse.Map, tol float64) (bool, string) {
	if a.Len() != b.Len() {
		return false, "support sizes differ"
	}
	ok := true
	a.ForEach(func(k uint32, av float64) {
		bv := b.Get(k)
		if math.Abs(av-bv) > tol*(1+math.Abs(av)) {
			ok = false
		}
	})
	if !ok {
		return false, "entry mismatch"
	}
	return true, ""
}

// --- Nibble ---

func TestNibbleSeqMassMonotone(t *testing.T) {
	// Truncation only discards mass: ||p_T||_1 <= 1 and positive.
	g := gen.Caveman(10, 8)
	vec, st := NibbleSeq(g, []uint32{0}, 1e-6, 15)
	sum := vec.Sum()
	if sum <= 0 || sum > 1+1e-12 {
		t.Fatalf("mass = %v, want in (0, 1]", sum)
	}
	if st.Iterations == 0 || st.Pushes == 0 {
		t.Fatalf("stats empty: %+v", st)
	}
}

func TestNibbleTheorem2WorkBound(t *testing.T) {
	// Each iteration's frontier volume is at most 1/eps (frontier vertices
	// hold p(v) >= eps*d(v) and total mass <= 1), so EdgesTouched <= T/eps.
	g := gen.RandLocal(1, 20000, 5, 5)
	T := 10
	eps := 1e-4
	_, st := NibbleSeq(g, []uint32{7}, eps, T)
	if float64(st.EdgesTouched) > float64(T)/eps {
		t.Fatalf("EdgesTouched = %d exceeds T/eps = %v", st.EdgesTouched, float64(T)/eps)
	}
	_, stp := NibbleRun(g, []uint32{7}, eps, T, RunConfig{Procs: 4})
	if float64(stp.EdgesTouched) > float64(T)/eps {
		t.Fatalf("parallel EdgesTouched = %d exceeds T/eps", stp.EdgesTouched)
	}
}

func TestNibbleParMatchesSeq(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"caveman": gen.Caveman(12, 8),
		"barbell": gen.Barbell(20),
		"grid3d":  gen.Grid3D(1, 8),
	}
	for name, g := range graphs {
		seqVec, seqSt := NibbleSeq(g, []uint32{1}, 1e-5, 12)
		for _, p := range procsUnderTest() {
			parVec, parSt := NibbleRun(g, []uint32{1}, 1e-5, 12, RunConfig{Procs: p})
			if parSt.Iterations != seqSt.Iterations {
				t.Fatalf("%s p=%d: iterations %d vs %d", name, p, parSt.Iterations, seqSt.Iterations)
			}
			if parSt.Pushes != seqSt.Pushes {
				t.Fatalf("%s p=%d: pushes %d vs %d (same frontiers expected)", name, p, parSt.Pushes, seqSt.Pushes)
			}
			if ok, why := vectorsClose(seqVec, parVec, 1e-9); !ok {
				t.Fatalf("%s p=%d: vectors differ: %s", name, p, why)
			}
		}
	}
}

func TestNibbleEarlyStopReturnsPrevious(t *testing.T) {
	// With a huge eps the first step truncates everything: the returned
	// vector must be p_0 (mass 1 on the seed) per Figure 3 lines 15-16.
	g := gen.Grid3D(1, 5) // degree 6 everywhere
	vec, st := NibbleSeq(g, []uint32{0}, 0.2, 10)
	// Frontier after step 1: p'(seed) = 0.5 < 0.2*6 = 1.2, neighbors get
	// 1/12 each < 1.2 -> empty, so p_0 is returned.
	if vec.Len() != 1 || vec.Get(0) != 1 {
		t.Fatalf("expected p_0, got len=%d p[0]=%v", vec.Len(), vec.Get(0))
	}
	if st.Iterations != 1 {
		t.Fatalf("iterations = %d, want 1", st.Iterations)
	}
	pv, _ := NibbleRun(g, []uint32{0}, 0.2, 10, RunConfig{Procs: 4})
	if pv.Len() != 1 || pv.Get(0) != 1 {
		t.Fatalf("parallel: expected p_0, got len=%d", pv.Len())
	}
}

func TestNibbleSubThresholdSeed(t *testing.T) {
	// Seed below threshold from the start: Figure 3 still pushes from it
	// once (the frontier is initialized to {x} unconditionally), the filter
	// then empties the frontier, and p_0 is returned.
	g := gen.Clique(100) // degree 99
	vec, st := NibbleSeq(g, []uint32{0}, 0.5, 10)
	if vec.Len() != 1 || vec.Get(0) != 1 || st.Iterations != 1 {
		t.Fatalf("expected p_0 after one iteration, got len=%d %+v", vec.Len(), st)
	}
	pv, stp := NibbleRun(g, []uint32{0}, 0.5, 10, RunConfig{Procs: 4})
	if pv.Len() != 1 || pv.Get(0) != 1 || stp.Iterations != 1 {
		t.Fatalf("parallel: expected p_0 after one iteration, got %+v", stp)
	}
}

func TestNibbleFindsBarbellCluster(t *testing.T) {
	k := 25
	g := gen.Barbell(k)
	for _, p := range procsUnderTest() {
		vec, _ := NibbleRun(g, []uint32{3}, 1e-7, 30, RunConfig{Procs: p})
		res := SweepCutPar(g, vec, p, nil)
		if len(res.Cluster) != k {
			t.Fatalf("p=%d: cluster size %d, want %d", p, len(res.Cluster), k)
		}
		want := 1.0 / float64(k*(k-1)+1)
		if math.Abs(res.Conductance-want) > 1e-12 {
			t.Fatalf("p=%d: conductance %v, want %v", p, res.Conductance, want)
		}
	}
}

// --- PR-Nibble ---

func TestPRNibbleMassConservation(t *testing.T) {
	// ||p||_1 + ||r||_1 = 1 throughout; at termination every residual is
	// below eps*d(v), so ||p||_1 >= 1 - eps*2m.
	g := gen.Caveman(10, 8)
	twoM := float64(g.TotalVolume())
	for _, rule := range []PushRule{OriginalRule, OptimizedRule} {
		eps := 1e-4
		vec, _ := PRNibbleSeq(g, []uint32{0}, 0.1, eps, rule)
		sum := vec.Sum()
		if sum > 1+1e-9 {
			t.Fatalf("rule=%v: mass %v > 1", rule, sum)
		}
		if sum < 1-eps*twoM-1e-9 {
			t.Fatalf("rule=%v: mass %v < 1 - eps*2m = %v", rule, sum, 1-eps*twoM)
		}
		for _, p := range procsUnderTest() {
			pv, _ := PRNibbleRun(g, []uint32{0}, 0.1, eps, rule, 1, RunConfig{Procs: p})
			psum := pv.Sum()
			if psum > 1+1e-9 || psum < 1-eps*twoM-1e-9 {
				t.Fatalf("rule=%v p=%d: parallel mass %v out of range", rule, p, psum)
			}
		}
	}
}

func TestPRNibbleTheorem3WorkBound(t *testing.T) {
	// Total pushed volume <= 1/(eps*alpha) for both schedules and rules.
	g := gen.RandLocal(1, 20000, 5, 9)
	alpha, eps := 0.01, 1e-5
	bound := 1 / (eps * alpha)
	for _, rule := range []PushRule{OriginalRule, OptimizedRule} {
		_, st := PRNibbleSeq(g, []uint32{3}, alpha, eps, rule)
		if float64(st.EdgesTouched) > bound {
			t.Fatalf("rule=%v: seq EdgesTouched %d > bound %v", rule, st.EdgesTouched, bound)
		}
		_, stp := PRNibbleRun(g, []uint32{3}, alpha, eps, rule, 1, RunConfig{Procs: 4})
		if float64(stp.EdgesTouched) > bound {
			t.Fatalf("rule=%v: par EdgesTouched %d > bound %v", rule, stp.EdgesTouched, bound)
		}
	}
}

func TestPRNibblePushInflationTable1(t *testing.T) {
	// The parallel schedule performs more pushes than the sequential one,
	// but Table 1 shows the inflation is modest (<= 1.6x there; allow 3x).
	g := gen.CommunityGraph(1, 20000, 12, 6, 50, 500, 2.5, 21)
	_, seqSt := PRNibbleSeq(g, []uint32{11}, 0.01, 1e-6, OptimizedRule)
	_, parSt := PRNibbleRun(g, []uint32{11}, 0.01, 1e-6, OptimizedRule, 1, RunConfig{Procs: 4})
	if parSt.Pushes < seqSt.Pushes/2 {
		t.Fatalf("parallel pushes %d suspiciously below sequential %d", parSt.Pushes, seqSt.Pushes)
	}
	if parSt.Pushes > 3*seqSt.Pushes {
		t.Fatalf("parallel pushes %d > 3x sequential %d", parSt.Pushes, seqSt.Pushes)
	}
	if parSt.Iterations >= int(parSt.Pushes) && parSt.Pushes > 100 {
		t.Fatalf("iterations %d not below pushes %d: no parallelism", parSt.Iterations, parSt.Pushes)
	}
}

func TestPRNibbleRulesFindSameCluster(t *testing.T) {
	// Figure 4's experiment notes both rules return clusters with the same
	// conductance.
	g := gen.Barbell(20)
	vo, _ := PRNibbleSeq(g, []uint32{2}, 0.05, 1e-7, OriginalRule)
	vp, _ := PRNibbleSeq(g, []uint32{2}, 0.05, 1e-7, OptimizedRule)
	ro := SweepCutSeq(g, vo, nil)
	rp := SweepCutSeq(g, vp, nil)
	if math.Abs(ro.Conductance-rp.Conductance) > 1e-9 {
		t.Fatalf("conductances differ: %v vs %v", ro.Conductance, rp.Conductance)
	}
	if len(ro.Cluster) != 20 || len(rp.Cluster) != 20 {
		t.Fatalf("cluster sizes: %d, %d; want 20", len(ro.Cluster), len(rp.Cluster))
	}
}

func TestPRNibbleOptimizedDoesLessWork(t *testing.T) {
	// The Figure 4 claim: the optimized rule is faster. Proxy: fewer pushes.
	g := gen.CommunityGraph(1, 10000, 12, 6, 50, 500, 2.5, 22)
	_, stO := PRNibbleSeq(g, []uint32{5}, 0.01, 1e-6, OriginalRule)
	_, stN := PRNibbleSeq(g, []uint32{5}, 0.01, 1e-6, OptimizedRule)
	if stN.Pushes >= stO.Pushes {
		t.Fatalf("optimized pushes %d >= original %d", stN.Pushes, stO.Pushes)
	}
}

func TestPRNibblePQVariantAgrees(t *testing.T) {
	g := gen.Caveman(8, 8)
	v1, _ := PRNibbleSeq(g, []uint32{0}, 0.05, 1e-6, OptimizedRule)
	v2, _ := PRNibbleSeqPQ(g, 0, 0.05, 1e-6, OptimizedRule)
	r1 := SweepCutSeq(g, v1, nil)
	r2 := SweepCutSeq(g, v2, nil)
	// Push order changes the approximation slightly (the paper only claims
	// the PQ variant "did not help much"); both must still find a
	// low-conductance cluster around the seed's clique.
	if r1.Conductance > 0.05 || r2.Conductance > 0.05 {
		t.Fatalf("cluster quality degraded: FIFO %v, PQ %v", r1.Conductance, r2.Conductance)
	}
}

func TestPRNibbleBetaFraction(t *testing.T) {
	// beta < 1 processes fewer vertices per iteration: more iterations, and
	// the returned vector must still be a valid PageRank approximation.
	g := gen.CommunityGraph(1, 5000, 12, 6, 50, 200, 2.5, 23)
	vFull, stFull := PRNibbleRun(g, []uint32{9}, 0.02, 1e-6, OptimizedRule, 1, RunConfig{Procs: 4})
	vBeta, stBeta := PRNibbleRun(g, []uint32{9}, 0.02, 1e-6, OptimizedRule, 0.25, RunConfig{Procs: 4})
	if stBeta.Iterations <= stFull.Iterations {
		t.Fatalf("beta=0.25 iterations %d <= beta=1 iterations %d", stBeta.Iterations, stFull.Iterations)
	}
	sum := vBeta.Sum()
	if sum <= 0 || sum > 1+1e-9 {
		t.Fatalf("beta vector mass %v", sum)
	}
	rFull := SweepCutSeq(g, vFull, nil)
	rBeta := SweepCutSeq(g, vBeta, nil)
	if rBeta.Conductance > 3*rFull.Conductance+0.05 {
		t.Fatalf("beta cluster much worse: %v vs %v", rBeta.Conductance, rFull.Conductance)
	}
}

func TestPRNibbleParFindsBarbell(t *testing.T) {
	k := 25
	g := gen.Barbell(k)
	for _, p := range procsUnderTest() {
		vec, _ := PRNibbleRun(g, []uint32{0}, 0.01, 1e-7, OptimizedRule, 1, RunConfig{Procs: p})
		res := SweepCutPar(g, vec, p, nil)
		if len(res.Cluster) != k || res.Cut != 1 {
			t.Fatalf("p=%d: cluster size %d cut %d", p, len(res.Cluster), res.Cut)
		}
	}
}

func TestPRNibbleIsolatedSeed(t *testing.T) {
	g := graph.FromEdges(1, 5, []graph.Edge{{U: 0, V: 1}})
	vec, st := PRNibbleSeq(g, []uint32{3}, 0.1, 1e-6, OptimizedRule)
	if vec.Len() != 0 || st.Pushes != 0 {
		t.Fatalf("isolated seed should do nothing: len=%d %+v", vec.Len(), st)
	}
	pv, pst := PRNibbleRun(g, []uint32{3}, 0.1, 1e-6, OptimizedRule, 1, RunConfig{Procs: 2})
	if pv.Len() != 0 || pst.Pushes != 0 {
		t.Fatalf("parallel isolated seed should do nothing")
	}
}

func TestSeedOutOfRangePanics(t *testing.T) {
	g := gen.Figure1()
	for name, fn := range map[string]func(){
		"NibbleSeq":   func() { NibbleSeq(g, []uint32{8}, 1e-4, 5) },
		"NibbleRun":   func() { NibbleRun(g, []uint32{100}, 1e-4, 5, RunConfig{Procs: 2}) },
		"PRNibbleSeq": func() { PRNibbleSeq(g, []uint32{8}, 0.1, 1e-4, OptimizedRule) },
		"PRNibbleRun": func() { PRNibbleRun(g, []uint32{8}, 0.1, 1e-4, OptimizedRule, 1, RunConfig{Procs: 2}) },
		"HKPRSeq":     func() { HKPRSeq(g, []uint32{8}, 2, 5, 1e-4) },
		"HKPRRun":     func() { HKPRRun(g, []uint32{8}, 2, 5, 1e-4, RunConfig{Procs: 2}) },
		"RandHKPRSeq": func() { RandHKPRSeq(g, []uint32{8}, 2, 5, 10, 1) },
		"RandHKPRRun": func() { RandHKPRRun(g, []uint32{8}, 2, 5, 10, 1, RunConfig{Procs: 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic for out-of-range seed", name)
				}
			}()
			fn()
		}()
	}
}

// --- HK-PR ---

func TestPsiTable(t *testing.T) {
	// psi_k = sum_{m=0}^{N-k} k!/(m+k)! t^m, computed directly for small N.
	N := 6
	tt := 2.5
	psi := psiTable(tt, N)
	fact := func(n int) float64 {
		f := 1.0
		for i := 2; i <= n; i++ {
			f *= float64(i)
		}
		return f
	}
	for k := 0; k <= N; k++ {
		want := 0.0
		for m := 0; m <= N-k; m++ {
			want += fact(k) / fact(m+k) * math.Pow(tt, float64(m))
		}
		if math.Abs(psi[k]-want) > 1e-9*want {
			t.Fatalf("psi[%d] = %v, want %v", k, psi[k], want)
		}
	}
	if psi[N] != 1 {
		t.Fatalf("psi[N] = %v, want 1", psi[N])
	}
}

func TestHKPRMassApproximatelyOne(t *testing.T) {
	// The e^-t-scaled vector approximates a probability distribution; with
	// N >= 2t log(1/eps) and small eps, the mass should be close to 1
	// (truncation drops only the Taylor tail and sub-threshold residuals).
	g := gen.Caveman(10, 8)
	vec, _ := HKPRSeq(g, []uint32{0}, 3, 20, 1e-7)
	sum := vec.Sum()
	if sum < 0.9 || sum > 1+1e-9 {
		t.Fatalf("mass = %v, want ~1", sum)
	}
}

func TestHKPRParMatchesSeq(t *testing.T) {
	graphs := map[string]*graph.CSR{
		"caveman": gen.Caveman(10, 8),
		"barbell": gen.Barbell(15),
		"grid3d":  gen.Grid3D(1, 7),
	}
	for name, g := range graphs {
		seqVec, seqSt := HKPRSeq(g, []uint32{1}, 4, 15, 1e-6)
		for _, p := range procsUnderTest() {
			parVec, parSt := HKPRRun(g, []uint32{1}, 4, 15, 1e-6, RunConfig{Procs: p})
			if parSt.Pushes != seqSt.Pushes {
				t.Fatalf("%s p=%d: pushes %d vs %d (identical entry sets expected)",
					name, p, parSt.Pushes, seqSt.Pushes)
			}
			if ok, why := vectorsClose(seqVec, parVec, 1e-9); !ok {
				t.Fatalf("%s p=%d: vectors differ: %s", name, p, why)
			}
		}
	}
}

func TestHKPRFindsBarbell(t *testing.T) {
	k := 25
	g := gen.Barbell(k)
	for _, p := range procsUnderTest() {
		vec, _ := HKPRRun(g, []uint32{0}, 10, 20, 1e-7, RunConfig{Procs: p})
		res := SweepCutPar(g, vec, p, nil)
		if len(res.Cluster) != k || res.Cut != 1 {
			t.Fatalf("p=%d: cluster size %d cut %d", p, len(res.Cluster), res.Cut)
		}
	}
}

func TestHKPRNOne(t *testing.T) {
	// N = 1: single level; the seed's mass goes to p and spreads once.
	g := gen.Cycle(10)
	vec, st := HKPRSeq(g, []uint32{0}, 1, 1, 1e-4)
	if st.Pushes != 1 {
		t.Fatalf("pushes = %d, want 1", st.Pushes)
	}
	// p = e^-1 * (1 on seed + 1/2 to each neighbor).
	if math.Abs(vec.Get(0)-math.Exp(-1)) > 1e-12 {
		t.Fatalf("p[seed] = %v", vec.Get(0))
	}
	if math.Abs(vec.Get(1)-math.Exp(-1)/2) > 1e-12 {
		t.Fatalf("p[ngh] = %v", vec.Get(1))
	}
	pv, _ := HKPRRun(g, []uint32{0}, 1, 1, 1e-4, RunConfig{Procs: 2})
	if ok, why := vectorsClose(vec, pv, 1e-12); !ok {
		t.Fatalf("parallel N=1 differs: %s", why)
	}
}

// --- rand-HK-PR ---

func TestRandHKPRSeqParIdentical(t *testing.T) {
	// Walk i's randomness comes from Split(seed, i) in every version, so
	// all three implementations return bit-identical vectors.
	g := gen.Caveman(10, 8)
	seq, seqSt := RandHKPRSeq(g, []uint32{0}, 5, 10, 5000, 42)
	for _, p := range procsUnderTest() {
		par, parSt := RandHKPRRun(g, []uint32{0}, 5, 10, 5000, 42, RunConfig{Procs: p})
		con, _ := RandHKPRParContended(g, 0, 5, 10, 5000, 42, p)
		if seq.Len() != par.Len() || seq.Len() != con.Len() {
			t.Fatalf("p=%d: support sizes %d / %d / %d", p, seq.Len(), par.Len(), con.Len())
		}
		seq.ForEach(func(k uint32, v float64) {
			if par.Get(k) != v {
				t.Fatalf("p=%d: par[%d] = %v, want %v", p, k, par.Get(k), v)
			}
			if con.Get(k) != v {
				t.Fatalf("p=%d: contended[%d] = %v, want %v", p, k, con.Get(k), v)
			}
		})
		if parSt.EdgesTouched != seqSt.EdgesTouched {
			t.Fatalf("p=%d: steps %d vs %d", p, parSt.EdgesTouched, seqSt.EdgesTouched)
		}
	}
}

func TestRandHKPRDistribution(t *testing.T) {
	// The vector is an empirical distribution: non-negative, sums to 1.
	g := gen.Barbell(15)
	vec, st := RandHKPRSeq(g, []uint32{0}, 5, 10, 2000, 7)
	sum := 0.0
	vec.ForEach(func(_ uint32, v float64) {
		if v < 0 {
			t.Fatalf("negative probability %v", v)
		}
		sum += v
	})
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v, want 1", sum)
	}
	if st.Pushes != 2000 {
		t.Fatalf("pushes = %d, want 2000 walks", st.Pushes)
	}
}

func TestRandHKPRFindsBarbell(t *testing.T) {
	k := 25
	g := gen.Barbell(k)
	vec, _ := RandHKPRRun(g, []uint32{0}, 10, 15, 20000, 3, RunConfig{})
	res := SweepCutPar(g, vec, 0, nil)
	// The randomized method is noisier; require the planted cut be found
	// with the bridge as the only crossing edge.
	if res.Cut != 1 || len(res.Cluster) != k {
		t.Fatalf("cluster size %d cut %d, want %d and 1", len(res.Cluster), res.Cut, k)
	}
}

func TestRandHKPRIsolatedSeed(t *testing.T) {
	g := graph.FromEdges(1, 3, []graph.Edge{{U: 0, V: 1}})
	vec, _ := RandHKPRSeq(g, []uint32{2}, 5, 10, 100, 1)
	if vec.Len() != 1 || vec.Get(2) != 1 {
		t.Fatalf("all walks should stay on the isolated seed: %v", vec.Get(2))
	}
}

func TestRandHKPRZeroLengthWalks(t *testing.T) {
	// t = 0: every walk has length 0 and ends on the seed.
	g := gen.Cycle(10)
	vec, _ := RandHKPRRun(g, []uint32{3}, 0, 5, 1000, 9, RunConfig{Procs: 4})
	if vec.Len() != 1 || vec.Get(3) != 1 {
		t.Fatalf("t=0 should leave all mass on the seed")
	}
}

// --- cross-algorithm integration ---

func TestAllAlgorithmsAgreeOnBarbell(t *testing.T) {
	// §6: "data analysts can use any of them"; on the barbell all four find
	// the same planted cluster.
	k := 20
	g := gen.Barbell(k)
	want := 1.0 / float64(k*(k-1)+1)
	type result struct {
		name string
		res  SweepResult
	}
	var results []result
	nv, _ := NibbleRun(g, []uint32{0}, 1e-7, 30, RunConfig{})
	results = append(results, result{"nibble", SweepCutPar(g, nv, 0, nil)})
	pv, _ := PRNibbleRun(g, []uint32{0}, 0.01, 1e-7, OptimizedRule, 1, RunConfig{})
	results = append(results, result{"prnibble", SweepCutPar(g, pv, 0, nil)})
	hv, _ := HKPRRun(g, []uint32{0}, 10, 20, 1e-7, RunConfig{})
	results = append(results, result{"hkpr", SweepCutPar(g, hv, 0, nil)})
	rv, _ := RandHKPRRun(g, []uint32{0}, 10, 15, 20000, 5, RunConfig{})
	results = append(results, result{"randhk", SweepCutPar(g, rv, 0, nil)})
	for _, r := range results {
		if len(r.res.Cluster) != k {
			t.Errorf("%s: cluster size %d, want %d", r.name, len(r.res.Cluster), k)
			continue
		}
		if math.Abs(r.res.Conductance-want) > 1e-12 {
			t.Errorf("%s: conductance %v, want %v", r.name, r.res.Conductance, want)
		}
	}
}

func TestAllAlgorithmsFindPlantedSBMBlock(t *testing.T) {
	sizes := []int{400, 400, 400, 400, 400}
	g := gen.SBM(0, sizes, 10, 1, 17)
	inBlock := func(cluster []uint32) (in, out int) {
		for _, v := range cluster {
			if v < 400 {
				in++
			} else {
				out++
			}
		}
		return
	}
	check := func(name string, vec *sparse.Map) {
		t.Helper()
		res := SweepCutPar(g, vec, 0, nil)
		in, out := inBlock(res.Cluster)
		if in < 300 || out > 40 {
			t.Errorf("%s: recovered %d in-block, %d out-of-block (size %d, phi %.3f)",
				name, in, out, len(res.Cluster), res.Conductance)
		}
	}
	nv, _ := NibbleRun(g, []uint32{5}, 1e-7, 25, RunConfig{})
	check("nibble", nv)
	pv, _ := PRNibbleRun(g, []uint32{5}, 0.01, 1e-7, OptimizedRule, 1, RunConfig{})
	check("prnibble", pv)
	hv, _ := HKPRRun(g, []uint32{5}, 10, 20, 1e-7, RunConfig{})
	check("hkpr", hv)
	rv, _ := RandHKPRRun(g, []uint32{5}, 10, 15, 50000, 5, RunConfig{})
	check("randhk", rv)
}

// --- NCP ---

func TestNCPBasic(t *testing.T) {
	g := gen.Caveman(20, 10) // communities of size 10
	points := NCP(g, NCPOptions{Seeds: 20, Alphas: []float64{0.01},
		Epsilons: []float64{1e-6}, Procs: 0, Seed: 3})
	if len(points) == 0 {
		t.Fatal("no NCP points")
	}
	bestAt10, bestAt5 := 2.0, 2.0
	for i, pt := range points {
		if pt.Size <= 0 || pt.Conductance <= 0 || pt.Conductance > 1 {
			t.Fatalf("bad point %+v", pt)
		}
		if i > 0 && points[i-1].Size >= pt.Size {
			t.Fatalf("points not sorted by size")
		}
		if pt.Size == 10 {
			bestAt10 = pt.Conductance
		}
		if pt.Size == 5 {
			bestAt5 = pt.Conductance
		}
	}
	// The planted communities have size 10: the NCP must dip there, and
	// half-communities (size 5) must be clearly worse. (The *global*
	// minimum of a ring of cliques legitimately sits at unions of
	// consecutive cliques — half the ring has cut 2 — so we do not assert
	// where the overall minimum lies.)
	if bestAt10 > 0.05 {
		t.Fatalf("NCP at size 10 = %v, expected the planted dip", bestAt10)
	}
	if bestAt5 < 4*bestAt10 {
		t.Fatalf("NCP at size 5 (%v) should be much worse than at 10 (%v)", bestAt5, bestAt10)
	}
	env := LowerEnvelope(points)
	if len(env) == 0 || len(env) > len(points) {
		t.Fatalf("envelope size %d", len(env))
	}
}

func TestNCPEmptyGraph(t *testing.T) {
	g := graph.FromEdges(1, 0, nil)
	if pts := NCP(g, NCPOptions{Seeds: 5}); pts != nil {
		t.Fatalf("expected nil for empty graph, got %v", pts)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Pushes: 1, Iterations: 2, EdgesTouched: 3}
	if got := s.String(); got != "pushes=1 iterations=2 edges=3" {
		t.Fatalf("Stats.String() = %q", got)
	}
}
