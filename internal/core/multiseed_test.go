package core

import (
	"math"
	"testing"

	"parcluster/internal/gen"
)

// Multi-vertex seed sets (footnote 5 of the paper): every diffusion accepts
// a seed set, splits the initial mass evenly, and keeps its invariants.

func TestMultiSeedSingletonEquivalence(t *testing.T) {
	// A one-element seed set must behave exactly like the single-seed API.
	g := gen.Caveman(8, 8)
	v1, s1 := NibbleSeq(g, []uint32{3}, 1e-5, 10)
	v2, s2 := NibbleSeq(g, []uint32{3}, 1e-5, 10)
	if s1.Pushes != s2.Pushes || v1.Len() != v2.Len() {
		t.Fatal("singleton seed set diverged from single-seed API (nibble)")
	}
	r1, _ := RandHKPRSeq(g, []uint32{3}, 5, 10, 2000, 9)
	r2, _ := RandHKPRSeq(g, []uint32{3}, 5, 10, 2000, 9)
	r1.ForEach(func(k uint32, v float64) {
		if r2.Get(k) != v {
			t.Fatalf("randhk singleton mismatch at %d", k)
		}
	})
}

func TestMultiSeedDedupAndValidation(t *testing.T) {
	g := gen.Caveman(4, 6)
	// Duplicates collapse: {3, 3} behaves as {3}.
	va, _ := NibbleSeq(g, []uint32{3, 3}, 1e-5, 8)
	vb, _ := NibbleSeq(g, []uint32{3}, 1e-5, 8)
	if va.Len() != vb.Len() || math.Abs(va.Sum()-vb.Sum()) > 1e-15 {
		t.Fatal("duplicate seeds changed the result")
	}
	for name, fn := range map[string]func(){
		"empty": func() { NibbleSeq(g, nil, 1e-5, 8) },
		"range": func() { PRNibbleSeq(g, []uint32{999}, 0.1, 1e-5, OptimizedRule) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMultiSeedMassConservation(t *testing.T) {
	g := gen.Caveman(10, 8)
	seeds := []uint32{0, 1, 2, 3, 4}
	eps := 1e-4
	twoM := float64(g.TotalVolume())
	vec, _ := PRNibbleSeq(g, seeds, 0.1, eps, OptimizedRule)
	if sum := vec.Sum(); sum > 1+1e-9 || sum < 1-eps*twoM-1e-9 {
		t.Fatalf("multi-seed PR-Nibble mass %v out of range", sum)
	}
	pv, _ := PRNibbleRun(g, seeds, 0.1, eps, OptimizedRule, 1, RunConfig{Procs: 4})
	if sum := pv.Sum(); sum > 1+1e-9 || sum < 1-eps*twoM-1e-9 {
		t.Fatalf("parallel multi-seed mass %v out of range", sum)
	}
}

func TestMultiSeedSeqParAgreement(t *testing.T) {
	g := gen.Barbell(20)
	seeds := []uint32{0, 5, 10}
	sv, sSt := NibbleSeq(g, seeds, 1e-6, 15)
	pv, pSt := NibbleRun(g, seeds, 1e-6, 15, RunConfig{Procs: 4})
	if sSt.Pushes != pSt.Pushes {
		t.Fatalf("nibble pushes differ: %d vs %d", sSt.Pushes, pSt.Pushes)
	}
	sv.ForEach(func(k uint32, v float64) {
		if math.Abs(pv.Get(k)-v) > 1e-9 {
			t.Fatalf("nibble vectors differ at %d", k)
		}
	})
	hs, hsSt := HKPRSeq(g, seeds, 5, 15, 1e-6)
	hp, hpSt := HKPRRun(g, seeds, 5, 15, 1e-6, RunConfig{Procs: 4})
	if hsSt.Pushes != hpSt.Pushes {
		t.Fatalf("hkpr pushes differ: %d vs %d", hsSt.Pushes, hpSt.Pushes)
	}
	hs.ForEach(func(k uint32, v float64) {
		if math.Abs(hp.Get(k)-v) > 1e-9 {
			t.Fatalf("hkpr vectors differ at %d", k)
		}
	})
	rs, _ := RandHKPRSeq(g, seeds, 5, 10, 5000, 7)
	rp, _ := RandHKPRRun(g, seeds, 5, 10, 5000, 7, RunConfig{Procs: 4})
	rs.ForEach(func(k uint32, v float64) {
		if rp.Get(k) != v {
			t.Fatalf("randhk vectors not bit-identical at %d", k)
		}
	})
}

func TestMultiSeedRecoversUnionOfCommunities(t *testing.T) {
	// Seeding in two caveman cliques at once concentrates mass on both;
	// the sweep should find a low-conductance set containing both seeds'
	// cliques (or one of them) — never a high-conductance blend.
	g := gen.Caveman(12, 8) // cliques of 8: IDs [0,8), [8,16), ...
	seeds := []uint32{1, 9} // adjacent cliques in the ring
	vec, _ := PRNibbleRun(g, seeds, 0.05, 1e-6, OptimizedRule, 1, RunConfig{})
	res := SweepCutPar(g, vec, 0)
	if res.Conductance > 0.1 {
		t.Fatalf("multi-seed cluster conductance %v", res.Conductance)
	}
	if len(res.Cluster) < 8 {
		t.Fatalf("cluster size %d smaller than one community", len(res.Cluster))
	}
}

func TestMultiSeedIncreasesParallelWork(t *testing.T) {
	// Footnote 5: seed sets increase frontier sizes. With k seeds the first
	// iteration processes k vertices instead of 1.
	g := gen.RandLocal(1, 5000, 5, 3)
	seeds := []uint32{0, 1000, 2000, 3000, 4000}
	_, one := NibbleRun(g, seeds[:1], 1e-4, 1, RunConfig{Procs: 2})
	_, many := NibbleRun(g, seeds, 1e-4, 1, RunConfig{Procs: 2})
	if many.Pushes != int64(len(seeds)) || one.Pushes != 1 {
		t.Fatalf("first-iteration pushes: one=%d many=%d", one.Pushes, many.Pushes)
	}
}
