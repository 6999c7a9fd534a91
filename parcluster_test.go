package parcluster

import (
	"math"
	"path/filepath"
	"testing"

	"parcluster/internal/core"
)

func TestFindClusterDefaultsOnBarbell(t *testing.T) {
	g := MustGenerate("barbell", map[string]int{"k": 20})
	c, err := FindCluster(g, 0, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Members) != 20 || c.Cut != 1 {
		t.Fatalf("cluster size %d cut %d, want 20 and 1", len(c.Members), c.Cut)
	}
	want := 1.0 / float64(20*19+1)
	if math.Abs(c.Conductance-want) > 1e-12 {
		t.Fatalf("conductance %v, want %v", c.Conductance, want)
	}
	if c.Stats.Pushes == 0 {
		t.Fatal("stats not populated")
	}
}

func TestFindClusterAllMethods(t *testing.T) {
	g := MustGenerate("barbell", map[string]int{"k": 15})
	for _, method := range []string{"nibble", "prnibble", "hkpr", "randhk"} {
		opts := ClusterOptions{Method: method}
		opts.RandHKPR.Walks = 20000
		c, err := FindCluster(g, 0, opts)
		if err != nil {
			t.Fatalf("%s: %v", method, err)
		}
		if len(c.Members) != 15 {
			t.Errorf("%s: cluster size %d, want 15", method, len(c.Members))
		}
	}
	if _, err := FindCluster(g, 0, ClusterOptions{Method: "bogus"}); err == nil {
		t.Error("bogus method accepted")
	}
}

func TestSequentialAndParallelVariantsAgree(t *testing.T) {
	g := MustGenerate("caveman", map[string]int{"cliques": 12, "k": 10})
	for _, method := range []string{"nibble", "prnibble", "hkpr", "randhk"} {
		seqOpts := ClusterOptions{Method: method}
		seqOpts.Nibble.Sequential = true
		seqOpts.PRNibble.Sequential = true
		seqOpts.HKPR.Sequential = true
		seqOpts.RandHKPR.Sequential = true
		seqOpts.RandHKPR.Walks = 5000
		seqOpts.Sweep.Sequential = true
		parOpts := ClusterOptions{Method: method}
		parOpts.RandHKPR.Walks = 5000
		cs, err := FindCluster(g, 3, seqOpts)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := FindCluster(g, 3, parOpts)
		if err != nil {
			t.Fatal(err)
		}
		// Same quality guarantee; PR-Nibble's parallel schedule may find a
		// slightly different vector, so compare conductance loosely and
		// membership via Jaccard.
		if math.Abs(cs.Conductance-cp.Conductance) > 0.05 {
			t.Errorf("%s: conductance %v (seq) vs %v (par)", method, cs.Conductance, cp.Conductance)
		}
		if j := Jaccard(SortedCopy(cs.Members), SortedCopy(cp.Members)); j < 0.7 {
			t.Errorf("%s: Jaccard(seq, par) = %v", method, j)
		}
	}
}

func TestSweepVariantsIdentical(t *testing.T) {
	g := MustGenerate("community", map[string]int{"n": 5000, "seed": 4})
	vec, _ := PRNibble(g, 17, PRNibbleOptions{})
	a := SweepCut(g, vec, SweepOptions{Sequential: true})
	b := SweepCut(g, vec, SweepOptions{})
	c := core.SweepCutParSort(g, vec, 0) // the Theorem 1 ablation has no root option
	if a.Conductance != b.Conductance || a.Conductance != c.Conductance {
		t.Fatalf("sweep variants disagree: %v %v %v", a.Conductance, b.Conductance, c.Conductance)
	}
	if len(a.Cluster) != len(b.Cluster) || len(a.Cluster) != len(c.Cluster) {
		t.Fatalf("cluster sizes disagree: %d %d %d", len(a.Cluster), len(b.Cluster), len(c.Cluster))
	}
}

func TestGenerateAndIO(t *testing.T) {
	g := MustGenerate("figure1", nil)
	if g.NumVertices() != 8 || g.NumEdges() != 8 {
		t.Fatalf("figure1: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.bin")
	if err := SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(0, path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	if _, err := Generate("not-a-recipe", nil); err == nil {
		t.Fatal("unknown recipe accepted")
	}
}

func TestStandInsListedAndGeneratable(t *testing.T) {
	names := StandInNames()
	if len(names) != 10 {
		t.Fatalf("expected the 10 Table 2 inputs, got %d", len(names))
	}
	g, err := StandIn(0, "3D-grid", Small)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("empty stand-in")
	}
}

func TestComputeNCPPublic(t *testing.T) {
	g := MustGenerate("caveman", map[string]int{"cliques": 10, "k": 8})
	pts := ComputeNCP(g, NCPOptions{Seeds: 10, Alphas: []float64{0.01}, Epsilons: []float64{1e-5}})
	if len(pts) == 0 {
		t.Fatal("no NCP points")
	}
	env := NCPLowerEnvelope(pts)
	if len(env) == 0 {
		t.Fatal("empty envelope")
	}
}

func TestPrecisionRecallAndJaccard(t *testing.T) {
	found := []uint32{1, 2, 3, 4}
	truth := []uint32{3, 4, 5, 6}
	p, r := PrecisionRecall(found, truth)
	if p != 0.5 || r != 0.5 {
		t.Fatalf("P/R = %v/%v, want 0.5/0.5", p, r)
	}
	if j := Jaccard(found, truth); math.Abs(j-2.0/6.0) > 1e-15 {
		t.Fatalf("Jaccard = %v, want 1/3", j)
	}
	if j := Jaccard(nil, nil); j != 1 {
		t.Fatalf("Jaccard(nil,nil) = %v", j)
	}
	p, r = PrecisionRecall(nil, truth)
	if p != 0 || r != 0 {
		t.Fatalf("empty found: %v/%v", p, r)
	}
}

func TestFromEdgesPublic(t *testing.T) {
	g := FromEdges(0, 0, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}
