package bench

import (
	"bytes"
	"strings"
	"testing"

	"parcluster/internal/gen"
)

// TestAllExperimentsRunSmall executes every experiment end-to-end at Small
// scale with a single repetition, verifying that the harness code paths run
// and produce their banner plus at least some table content. This is the
// CI guard for the reproduction harness itself, sized by the Small scale's
// own parameters (paramsFor, Fig12's seed count) to about ten seconds; the
// measured numbers come from cmd/lgc-bench runs at -scale medium or large.
func TestAllExperimentsRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke test is slow; skipped with -short")
	}
	var buf bytes.Buffer
	w := NewWorkspace(Config{Scale: gen.Small, Procs: 0, Out: &buf, Reps: 1})
	for _, id := range ExperimentIDs() {
		if err := w.Run(id); err != nil {
			t.Fatalf("experiment %s: %v", id, err)
		}
		if !strings.Contains(buf.String(), "=== "+id) {
			t.Fatalf("experiment %s produced no banner", id)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"soc-LJ", "randLocal", "3D-grid", // table rows
		"Pushes (seq)",               // table1
		"original vs optimized",      // fig4
		"speedup",                    // table3/fig9
		"network community profiles", // fig12
	} {
		if !strings.Contains(out, want) {
			t.Errorf("harness output missing %q", want)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	w := NewWorkspace(Config{Scale: gen.Small, Reps: 1})
	if err := w.Run("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestWorkspaceGraphCaching(t *testing.T) {
	w := NewWorkspace(Config{Scale: gen.Small, Reps: 1})
	g1, err := w.Graph("3D-grid")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := w.Graph("3D-grid")
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("graph not cached")
	}
	if _, err := w.Graph("bogus"); err == nil {
		t.Fatal("bogus graph name accepted")
	}
	s1, err := w.Seed("3D-grid")
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := w.Seed("3D-grid")
	if s1 != s2 {
		t.Fatal("seed not cached")
	}
}

func TestParamsScale(t *testing.T) {
	small := paramsFor(gen.Small)
	med := paramsFor(gen.Medium)
	large := paramsFor(gen.Large)
	if !(small.PREps > med.PREps && med.PREps > large.PREps) {
		t.Fatalf("epsilon should tighten with scale: %v %v %v", small.PREps, med.PREps, large.PREps)
	}
	if !(small.RandWalks < med.RandWalks && med.RandWalks < large.RandWalks) {
		t.Fatal("walk counts should grow with scale")
	}
	if large.PREps != 1e-7 || large.NibbleEps != 1e-8 {
		t.Fatalf("large scale should use the paper's thresholds, got %v", large)
	}
}

func TestProcGrid(t *testing.T) {
	w := NewWorkspace(Config{Procs: 8, Reps: 1})
	grid := w.procGrid()
	if grid[0] != 1 || grid[len(grid)-1] != 8 {
		t.Fatalf("grid = %v", grid)
	}
	for i := 1; i < len(grid); i++ {
		if grid[i] <= grid[i-1] {
			t.Fatalf("grid not increasing: %v", grid)
		}
	}
}
