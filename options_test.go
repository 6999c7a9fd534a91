package parcluster

import (
	"math"
	"testing"
)

func TestNibbleOptionDefaults(t *testing.T) {
	o := NibbleOptions{}
	o.defaults()
	if o.Epsilon != 1e-8 || o.T != 20 {
		t.Fatalf("Nibble defaults = %+v, want the paper's Table 3 settings", o)
	}
}

func TestPRNibbleOptionDefaults(t *testing.T) {
	o := PRNibbleOptions{}
	o.defaults()
	if o.Alpha != 0.01 || o.Epsilon != 1e-7 || o.rule() != OptimizedRule {
		t.Fatalf("PRNibble defaults = %+v", o)
	}
	o = PRNibbleOptions{UseOriginalRule: true}
	if o.rule() != OriginalRule {
		t.Fatal("UseOriginalRule not honored")
	}
}

func TestHKPROptionDefaults(t *testing.T) {
	o := HKPROptions{}
	o.defaults()
	if o.T != 10 || o.N != 20 || o.Epsilon != 1e-7 {
		t.Fatalf("HKPR defaults = %+v", o)
	}
}

func TestRandHKPROptionDefaults(t *testing.T) {
	o := RandHKPROptions{}
	o.defaults()
	if o.T != 10 || o.K != 10 || o.Walks != 100000 {
		t.Fatalf("RandHKPR defaults = %+v", o)
	}
}

func TestRandHKPRVariantsBitIdentical(t *testing.T) {
	// The public API exposes the sequential and the parallel rand-HK-PR;
	// they must return bit-identical vectors for the same Seed. (The
	// contended ablation is held to the same in internal/core.)
	g := MustGenerate("caveman", map[string]int{"cliques": 6, "k": 8})
	base := RandHKPROptions{Walks: 3000, Seed: 5}
	seqOpt := base
	seqOpt.Sequential = true
	vPar, _ := RandHKPR(g, 0, base)
	vSeq, _ := RandHKPR(g, 0, seqOpt)
	if vPar.Len() != vSeq.Len() {
		t.Fatalf("support sizes differ: %d %d", vPar.Len(), vSeq.Len())
	}
	seq := entries(vSeq)
	vPar.ForEach(func(k uint32, v float64) {
		if seq[k] != v {
			t.Fatalf("variant mismatch at %d: %v / %v", k, v, seq[k])
		}
	})
}

// entries returns vec's entries as a map: the one way the tests look a
// vector's entries up.
func entries(vec *Vector) map[uint32]float64 {
	m := make(map[uint32]float64, vec.Len())
	vec.ForEach(func(k uint32, x float64) { m[k] = x })
	return m
}

func TestPRNibbleBetaViaAPI(t *testing.T) {
	g := MustGenerate("caveman", map[string]int{"cliques": 6, "k": 8})
	vec, st := PRNibble(g, 0, PRNibbleOptions{Alpha: 0.05, Epsilon: 1e-5, Beta: 0.5})
	if vec.Len() == 0 || st.Iterations == 0 {
		t.Fatal("beta variant returned nothing")
	}
}

func TestFigure1PipelineViaAPI(t *testing.T) {
	// The quickstart's pinned result: from seed A every method finds
	// {A, B, C} at conductance 1/7.
	g := MustGenerate("figure1", nil)
	opts := ClusterOptions{}
	opts.Nibble.Epsilon = 1e-4
	for _, method := range []string{"nibble", "prnibble", "hkpr"} {
		opts.Method = method
		c, err := FindCluster(g, 0, opts)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(c.Conductance-1.0/7.0) > 1e-12 {
			t.Fatalf("%s: conductance %v, want 1/7", method, c.Conductance)
		}
		got := SortedCopy(c.Members)
		if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
			t.Fatalf("%s: cluster %v, want {A,B,C}", method, got)
		}
	}
}

func TestEvolvingSetViaAPI(t *testing.T) {
	g := MustGenerate("barbell", map[string]int{"k": 15})
	res, st := EvolvingSet(g, 0, EvolvingSetOptions{MaxIter: 50, GrowOnly: true, Seed: 3}, false)
	if len(res.Set) != 15 {
		t.Fatalf("set size %d, want the left clique", len(res.Set))
	}
	if st.Iterations == 0 {
		t.Fatal("stats not populated")
	}
	// And through FindCluster's method dispatch.
	opts := ClusterOptions{Method: "evolving"}
	opts.EvolvingSet = EvolvingSetOptions{MaxIter: 50, GrowOnly: true, Seed: 3}
	c, err := FindCluster(g, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Members) != 15 || c.Cut != 1 {
		t.Fatalf("FindCluster(evolving): size %d cut %d", len(c.Members), c.Cut)
	}
}

func TestStatsExposedThroughCluster(t *testing.T) {
	g := MustGenerate("barbell", map[string]int{"k": 10})
	c, err := FindCluster(g, 0, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Pushes == 0 || c.Stats.EdgesTouched == 0 {
		t.Fatalf("stats not propagated: %+v", c.Stats)
	}
	if c.Volume == 0 || c.Cut == 0 {
		t.Fatalf("cluster quality fields not set: %+v", c)
	}
}

func TestSeedSetAPI(t *testing.T) {
	// Seeding two vertices of the same barbell clique recovers that clique.
	// (Seeding *both* cliques symmetrically would be adversarial: the sweep
	// order interleaves the two sides and no good prefix exists.)
	g := MustGenerate("barbell", map[string]int{"k": 20})
	for name, run := range map[string]func() (*Vector, Stats){
		"nibble":   func() (*Vector, Stats) { return NibbleFrom(g, []uint32{0, 5}, NibbleOptions{Epsilon: 1e-6}) },
		"prnibble": func() (*Vector, Stats) { return PRNibbleFrom(g, []uint32{0, 5}, PRNibbleOptions{}) },
		"hkpr":     func() (*Vector, Stats) { return HKPRFrom(g, []uint32{0, 5}, HKPROptions{}) },
		"randhk":   func() (*Vector, Stats) { return RandHKPRFrom(g, []uint32{0, 5}, RandHKPROptions{Walks: 20000}) },
	} {
		vec, st := run()
		if vec.Len() == 0 || st.Pushes == 0 {
			t.Fatalf("%s: empty result", name)
		}
		res := SweepCut(g, vec, SweepOptions{})
		if res.Cut != 1 || len(res.Cluster) != 20 {
			t.Errorf("%s: cluster size %d cut %d, want one clique", name, len(res.Cluster), res.Cut)
		}
	}
}
