package bench

import (
	"math"
	"strconv"
	"time"

	"parcluster/internal/core"
	"parcluster/internal/gen"
	"parcluster/internal/sparse"
)

// table3Graphs is the paper's Table 2/3 row order.
func table3Graphs() []string { return gen.StandInNames() }

// table1Graphs is the subset the paper reports push counts for in Table 1.
func table1Graphs() []string {
	return []string{"soc-LJ", "cit-Patents", "com-LJ", "com-Orkut", "Twitter", "com-friendster", "Yahoo"}
}

// largestGraph is the stand-in used by the single-graph experiments
// (Figures 8, 10, 11 use Yahoo, the paper's largest input).
const largestGraph = "Yahoo"

// Table2 prints the graph inventory (paper Table 2): vertices and unique
// undirected edges of every generated input.
func (w *Workspace) Table2() error {
	w.header("table2", "graph inputs (stand-ins; see DESIGN.md §3)")
	w.printf("%-16s %14s %16s\n", "Input Graph", "Num. Vertices", "Num. Edges")
	for _, name := range table3Graphs() {
		g, err := w.Graph(name)
		if err != nil {
			return err
		}
		w.printf("%-16s %14d %16d\n", name, g.NumVertices(), g.NumEdges())
	}
	return nil
}

// Table1 prints PR-Nibble push and iteration counts (paper Table 1):
// sequential pushes, parallel pushes, and parallel iteration count, with
// the optimized update rule.
func (w *Workspace) Table1() error {
	pr := w.params
	w.header("table1", "PR-Nibble pushes and iterations (optimized rule)")
	w.printf("alpha=%g eps=%g\n", pr.PRAlpha, pr.PREps)
	w.printf("%-16s %14s %14s %12s %8s\n",
		"Input Graph", "Pushes (seq)", "Pushes (par)", "Iter (par)", "ratio")
	for _, name := range table1Graphs() {
		g, err := w.Graph(name)
		if err != nil {
			return err
		}
		seed, _ := w.Seed(name)
		_, seqSt := core.PRNibbleSeq(g, []uint32{seed}, pr.PRAlpha, pr.PREps, core.OptimizedRule)
		_, parSt := core.PRNibbleRun(g, []uint32{seed}, pr.PRAlpha, pr.PREps, core.OptimizedRule, 1, core.RunConfig{Procs: w.cfg.Procs})
		ratio := float64(parSt.Pushes) / float64(max64(seqSt.Pushes, 1))
		w.printf("%-16s %14d %14d %12d %8.2f\n",
			name, seqSt.Pushes, parSt.Pushes, parSt.Iterations, ratio)
	}
	w.printf("expected shape: ratio <= ~1.6 (paper), iterations << pushes\n")
	return nil
}

// runAlgo executes one of the four diffusions and returns the vector.
func (w *Workspace) runAlgo(algo, graphName string, procs int, seq bool) (*sparse.Map, core.Stats, error) {
	g, err := w.Graph(graphName)
	if err != nil {
		return nil, core.Stats{}, err
	}
	seed, _ := w.Seed(graphName)
	seeds := []uint32{seed}
	pr := w.params
	switch algo {
	case "nibble":
		if seq {
			v, st := core.NibbleSeq(g, seeds, pr.NibbleEps, pr.NibbleT)
			return v, st, nil
		}
		v, st := core.NibbleRun(g, seeds, pr.NibbleEps, pr.NibbleT, core.RunConfig{Procs: procs})
		return v, st, nil
	case "prnibble":
		if seq {
			v, st := core.PRNibbleSeq(g, seeds, pr.PRAlpha, pr.PREps, core.OptimizedRule)
			return v, st, nil
		}
		v, st := core.PRNibbleRun(g, seeds, pr.PRAlpha, pr.PREps, core.OptimizedRule, 1, core.RunConfig{Procs: procs})
		return v, st, nil
	case "hkpr":
		if seq {
			v, st := core.HKPRSeq(g, seeds, pr.HKt, pr.HKN, pr.HKEps)
			return v, st, nil
		}
		v, st := core.HKPRRun(g, seeds, pr.HKt, pr.HKN, pr.HKEps, core.RunConfig{Procs: procs})
		return v, st, nil
	case "randhk":
		if seq {
			v, st := core.RandHKPRSeq(g, seeds, pr.RandT, pr.RandK, pr.RandWalks, 1)
			return v, st, nil
		}
		v, st := core.RandHKPRRun(g, seeds, pr.RandT, pr.RandK, pr.RandWalks, 1, core.RunConfig{Procs: procs})
		return v, st, nil
	}
	return nil, core.Stats{}, errUnknownAlgo(algo)
}

type errUnknownAlgo string

func (e errUnknownAlgo) Error() string { return "bench: unknown algorithm " + string(e) }

// Table3 prints T1 and Tp running times (paper Table 3) for the parallel
// implementations of the four algorithms, their sequential counterparts,
// and the sweep cut applied to Nibble's output.
func (w *Workspace) Table3() error {
	w.header("table3", "running times (seconds): sequential, parallel T1, parallel Tp")
	pr := w.params
	w.printf("nibble: T=%d eps=%g | prnibble: a=%g eps=%g | hkpr: t=%g N=%d eps=%g | randhk: t=%g K=%d N=%d\n",
		pr.NibbleT, pr.NibbleEps, pr.PRAlpha, pr.PREps, pr.HKt, pr.HKN, pr.HKEps, pr.RandT, pr.RandK, pr.RandWalks)
	algos := []string{"nibble", "prnibble", "hkpr", "randhk"}
	w.printf("%-16s %-10s %10s %10s %10s %9s\n", "Input Graph", "algorithm", "seq", "T1", "Tp", "speedup")
	for _, name := range table3Graphs() {
		if _, err := w.Graph(name); err != nil {
			return err
		}
		for _, algo := range algos {
			tSeq := w.timeIt(func() { w.runAlgo(algo, name, 1, true) })
			t1 := w.timeIt(func() { w.runAlgo(algo, name, 1, false) })
			tp := w.timeIt(func() { w.runAlgo(algo, name, w.cfg.Procs, false) })
			w.printf("%-16s %-10s %10s %10s %10s %8.1fx\n",
				name, algo, seconds(tSeq), seconds(t1), seconds(tp), t1.Seconds()/tp.Seconds())
		}
		// Sweep on Nibble's output, as in the paper's last two rows.
		g, _ := w.Graph(name)
		vec, _, err := w.runAlgo("nibble", name, w.cfg.Procs, false)
		if err != nil {
			return err
		}
		tSeq := w.timeIt(func() { core.SweepCutSeq(g, vec, nil) })
		t1 := w.timeIt(func() { core.SweepCutPar(g, vec, 1, nil) })
		tp := w.timeIt(func() { core.SweepCutPar(g, vec, w.cfg.Procs, nil) })
		w.printf("%-16s %-10s %10s %10s %10s %8.1fx  (support %d)\n",
			name, "sweep", seconds(tSeq), seconds(t1), seconds(tp), t1.Seconds()/tp.Seconds(), vec.Len())
	}
	return nil
}

// Fig4 prints normalized running times of original vs optimized sequential
// PR-Nibble (paper Figure 4).
func (w *Workspace) Fig4() error {
	pr := w.params
	w.header("fig4", "sequential PR-Nibble: original vs optimized update rule")
	w.printf("alpha=%g eps=%g; times normalized to the original rule\n", pr.PRAlpha, pr.PREps)
	w.printf("%-16s %12s %12s %12s %10s\n", "Input Graph", "orig (s)", "opt (s)", "normalized", "speedup")
	for _, name := range table3Graphs() {
		g, err := w.Graph(name)
		if err != nil {
			return err
		}
		seed, _ := w.Seed(name)
		tOrig := w.timeIt(func() { core.PRNibbleSeq(g, []uint32{seed}, pr.PRAlpha, pr.PREps, core.OriginalRule) })
		tOpt := w.timeIt(func() { core.PRNibbleSeq(g, []uint32{seed}, pr.PRAlpha, pr.PREps, core.OptimizedRule) })
		w.printf("%-16s %12s %12s %12.3f %9.2fx\n",
			name, seconds(tOrig), seconds(tOpt),
			tOpt.Seconds()/tOrig.Seconds(), tOrig.Seconds()/tOpt.Seconds())
	}
	w.printf("expected shape: optimized < 1.0 on every graph (paper: 1.4-6.4x faster)\n")
	return nil
}

// Fig8 prints running time and conductance as functions of the algorithm
// parameters on the largest stand-in (paper Figure 8, panels a-h).
func (w *Workspace) Fig8() error {
	g, err := w.Graph(largestGraph)
	if err != nil {
		return err
	}
	seed, _ := w.Seed(largestGraph)
	seeds, cfg := []uint32{seed}, core.RunConfig{Procs: w.cfg.Procs}
	w.header("fig8", "parameter sensitivity on "+largestGraph)

	sweepPhi := func(vec *sparse.Map) float64 {
		return core.SweepCutPar(g, vec, w.cfg.Procs, nil).Conductance
	}

	w.printf("\n(a,b) Nibble: rows T, columns eps (time s | conductance)\n")
	epsGrid := []float64{1e-6, 1e-7, 1e-8}
	w.printf("%6s", "T\\eps")
	for _, e := range epsGrid {
		w.printf(" %19.0e", e)
	}
	w.printf("\n")
	for _, T := range []int{5, 10, 20, 40} {
		w.printf("%6d", T)
		for _, eps := range epsGrid {
			var vec *sparse.Map
			d := w.timeIt(func() { vec, _ = core.NibbleRun(g, seeds, eps, T, cfg) })
			w.printf("   %8s | %6.4f", seconds(d), sweepPhi(vec))
		}
		w.printf("\n")
	}

	w.printf("\n(c,d) PR-Nibble (optimized): eps -> time, conductance\n")
	for _, eps := range []float64{1e-4, 1e-5, 1e-6, 1e-7} {
		var vec *sparse.Map
		d := w.timeIt(func() { vec, _ = core.PRNibbleRun(g, seeds, w.params.PRAlpha, eps, core.OptimizedRule, 1, cfg) })
		w.printf("  eps=%7.0e  time=%8s  phi=%6.4f  support=%d\n", eps, seconds(d), sweepPhi(vec), vec.Len())
	}

	w.printf("\n(e,f) HK-PR: rows N, columns eps (time s | conductance)\n")
	hkEps := []float64{1e-5, 1e-6, 1e-7}
	w.printf("%6s", "N\\eps")
	for _, e := range hkEps {
		w.printf(" %19.0e", e)
	}
	w.printf("\n")
	for _, N := range []int{5, 10, 20, 40} {
		w.printf("%6d", N)
		for _, eps := range hkEps {
			var vec *sparse.Map
			d := w.timeIt(func() { vec, _ = core.HKPRRun(g, seeds, w.params.HKt, N, eps, cfg) })
			w.printf("   %8s | %6.4f", seconds(d), sweepPhi(vec))
		}
		w.printf("\n")
	}

	w.printf("\n(g,h) rand-HK-PR: rows K, columns walks N (time s | conductance)\n")
	walkGrid := []int{w.params.RandWalks / 100, w.params.RandWalks / 10, w.params.RandWalks}
	w.printf("%6s", "K\\N")
	for _, n := range walkGrid {
		w.printf(" %19d", n)
	}
	w.printf("\n")
	for _, K := range []int{5, 10, 20} {
		w.printf("%6d", K)
		for _, walks := range walkGrid {
			var vec *sparse.Map
			d := w.timeIt(func() { vec, _ = core.RandHKPRRun(g, seeds, w.params.RandT, K, walks, 1, cfg) })
			w.printf("   %8s | %6.4f", seconds(d), sweepPhi(vec))
		}
		w.printf("\n")
	}
	w.printf("expected shape: time grows and conductance falls as T/N/walks grow or eps shrinks\n")
	return nil
}

// fig9Graphs is the subset used for the speedup curves (the paper plots 8;
// four representative stand-ins keep the harness runtime reasonable).
func fig9Graphs() []string { return []string{"soc-LJ", "com-Orkut", "Twitter", "randLocal"} }

// Fig9 prints self-relative speedup versus core count for the four
// parallel algorithms (paper Figure 9).
func (w *Workspace) Fig9() error {
	w.header("fig9", "self-relative speedup vs cores")
	grid := w.procGrid()
	for _, algo := range []string{"nibble", "prnibble", "hkpr", "randhk"} {
		w.printf("\n%s:\n%-16s", algo, "graph\\cores")
		for _, p := range grid {
			w.printf(" %7d", p)
		}
		w.printf("\n")
		for _, name := range fig9Graphs() {
			if _, err := w.Graph(name); err != nil {
				return err
			}
			var t1 time.Duration
			w.printf("%-16s", name)
			for i, p := range grid {
				d := w.timeIt(func() { w.runAlgo(algo, name, p, false) })
				if i == 0 {
					t1 = d
				}
				w.printf(" %6.2fx", t1.Seconds()/d.Seconds())
			}
			w.printf("\n")
		}
	}
	w.printf("\nexpected shape: monotone-ish growth; randhk scales best (embarrassingly parallel)\n")
	return nil
}

// Fig10 prints sweep cut time versus core count against the sequential
// sweep (paper Figure 10), on a large-support Nibble output.
func (w *Workspace) Fig10() error {
	g, err := w.Graph(largestGraph)
	if err != nil {
		return err
	}
	seed, _ := w.Seed(largestGraph)
	// A gentler epsilon grows the support, the regime Figure 10 studies.
	vec, _ := core.NibbleRun(g, []uint32{seed}, w.params.NibbleEps/10, w.params.NibbleT, core.RunConfig{Procs: w.cfg.Procs})
	res := core.SweepCutPar(g, vec, w.cfg.Procs, nil)
	w.header("fig10", "sweep cut time vs cores on "+largestGraph)
	w.printf("input: support=%d volume=%d\n", vec.Len(), g.Volume(res.Order))
	tSeq := w.timeIt(func() { core.SweepCutSeq(g, vec, nil) })
	w.printf("sequential sweep: %s s\n", seconds(tSeq))
	w.printf("%8s %12s %9s\n", "cores", "par (s)", "vs seq")
	for _, p := range w.procGrid() {
		d := w.timeIt(func() { core.SweepCutPar(g, vec, p, nil) })
		w.printf("%8d %12s %8.2fx\n", p, seconds(d), tSeq.Seconds()/d.Seconds())
	}
	w.printf("expected shape: parallel slower on 1 core, overtakes sequential within a few cores\n")
	return nil
}

// Fig11 prints parallel sweep time versus support volume (paper Figure 11),
// varying Nibble's epsilon to grow the swept set.
func (w *Workspace) Fig11() error {
	g, err := w.Graph(largestGraph)
	if err != nil {
		return err
	}
	seed, _ := w.Seed(largestGraph)
	w.header("fig11", "parallel sweep time vs input volume on "+largestGraph)
	w.printf("%12s %14s %12s\n", "support", "volume", "time (s)")
	base := w.params.NibbleEps
	for _, eps := range []float64{base * 100, base * 10, base, base / 10, base / 100} {
		vec, _ := core.NibbleRun(g, []uint32{seed}, eps, w.params.NibbleT, core.RunConfig{Procs: w.cfg.Procs})
		if vec.Len() == 0 {
			continue
		}
		res := core.SweepCutPar(g, vec, w.cfg.Procs, nil)
		vol := g.Volume(res.Order)
		d := w.timeIt(func() { core.SweepCutPar(g, vec, w.cfg.Procs, nil) })
		w.printf("%12d %14d %12s\n", vec.Len(), vol, seconds(d))
	}
	w.printf("expected shape: time ~linear in volume\n")
	return nil
}

// Fig12 prints network community profiles for the large stand-ins (paper
// Figure 12: Twitter, com-friendster, Yahoo).
func (w *Workspace) Fig12() error {
	w.header("fig12", "network community profiles")
	seeds := 50
	switch w.cfg.Scale {
	case gen.Small:
		seeds = 10 // 60 diffusions a graph: what the harness smoke test affords
	case gen.Large:
		seeds = 200
	}
	for _, name := range []string{"Twitter", "com-friendster", "Yahoo"} {
		g, err := w.Graph(name)
		if err != nil {
			return err
		}
		points := core.NCP(g, core.NCPOptions{
			Seeds:    seeds,
			Alphas:   []float64{0.1, 0.01},
			Epsilons: []float64{1e-4, 1e-5, 1e-6},
			Procs:    w.cfg.Procs,
			Seed:     7,
		})
		env := core.LowerEnvelope(points)
		w.printf("\n%s (n=%d m=%d, %d seeds): size -> best conductance\n",
			name, g.NumVertices(), g.NumEdges(), seeds)
		for _, pt := range env {
			w.printf("  %8d %.5f\n", pt.Size, pt.Conductance)
		}
	}
	w.printf("\nexpected shape: community stand-ins dip then rise; Twitter's best clusters are small\n")
	return nil
}

// AblationRandHKAggregation compares the paper's sort-based rand-HK-PR
// aggregation against the naive contended fetch-and-add (§3.5's negative
// result; DESIGN.md ablation A1).
func (w *Workspace) AblationRandHKAggregation() error {
	g, err := w.Graph("soc-LJ")
	if err != nil {
		return err
	}
	seed, _ := w.Seed("soc-LJ")
	pr := w.params
	w.header("A1", "rand-HK-PR aggregation: sort-based vs contended fetch-and-add")
	w.printf("%8s %14s %14s\n", "cores", "sort (s)", "contended (s)")
	for _, p := range w.procGrid() {
		tSort := w.timeIt(func() {
			core.RandHKPRRun(g, []uint32{seed}, pr.RandT, pr.RandK, pr.RandWalks, 1, core.RunConfig{Procs: p})
		})
		tCont := w.timeIt(func() { core.RandHKPRParContended(g, seed, pr.RandT, pr.RandK, pr.RandWalks, 1, p) })
		w.printf("%8d %14s %14s\n", p, seconds(tSort), seconds(tCont))
	}
	w.printf("expected shape: contended aggregation scales worse with cores\n")
	return nil
}

// AblationSweepStrategy compares the bucket-accumulation parallel sweep
// against the faithful Theorem-1 sort-based sweep (DESIGN.md ablation A2).
func (w *Workspace) AblationSweepStrategy() error {
	g, err := w.Graph(largestGraph)
	if err != nil {
		return err
	}
	seed, _ := w.Seed(largestGraph)
	vec, _ := core.NibbleRun(g, []uint32{seed}, w.params.NibbleEps/10, w.params.NibbleT, core.RunConfig{Procs: w.cfg.Procs})
	w.header("A2", "parallel sweep strategies (support "+itoa(vec.Len())+")")
	w.printf("%8s %14s %14s\n", "cores", "bucket (s)", "Thm-1 sort (s)")
	for _, p := range w.procGrid() {
		tB := w.timeIt(func() { core.SweepCutPar(g, vec, p, nil) })
		tS := w.timeIt(func() { core.SweepCutParSort(g, vec, p, nil) })
		w.printf("%8d %14s %14s\n", p, seconds(tB), seconds(tS))
	}
	a := core.SweepCutPar(g, vec, w.cfg.Procs, nil)
	b := core.SweepCutParSort(g, vec, w.cfg.Procs, nil)
	w.printf("results identical: %v (phi %.6f vs %.6f)\n",
		a.Conductance == b.Conductance && len(a.Cluster) == len(b.Cluster),
		a.Conductance, b.Conductance)
	return nil
}

// AblationBetaFraction sweeps the β parameter of the β-fraction PR-Nibble
// variant (§3.3; DESIGN.md ablation A3).
func (w *Workspace) AblationBetaFraction() error {
	g, err := w.Graph("soc-LJ")
	if err != nil {
		return err
	}
	seed, _ := w.Seed("soc-LJ")
	pr := w.params
	w.header("A3", "PR-Nibble β-fraction variant on soc-LJ")
	w.printf("%8s %12s %12s %12s %10s\n", "beta", "time (s)", "pushes", "iterations", "phi")
	for _, beta := range []float64{0.1, 0.25, 0.5, 1.0} {
		var vec *sparse.Map
		var st core.Stats
		d := w.timeIt(func() {
			vec, st = core.PRNibbleRun(g, []uint32{seed}, pr.PRAlpha, pr.PREps, core.OptimizedRule, beta, core.RunConfig{Procs: w.cfg.Procs})
		})
		phi := core.SweepCutPar(g, vec, w.cfg.Procs, nil).Conductance
		w.printf("%8.2f %12s %12d %12d %10.4f\n", beta, seconds(d), st.Pushes, st.Iterations, phi)
	}
	w.printf("expected shape: smaller beta -> fewer pushes per round, more rounds; quality similar\n")
	return nil
}

// AblationFrontierMode compares the sparse, dense, and auto frontier
// representations of the diffusion engine (DESIGN.md ablation A4) in the
// large-frontier regime: a multi-vertex seed set (footnote 5) and a
// tightened epsilon inflate |F| + vol(F) past Ligra's direction-heuristic
// threshold, where the pull-direction edge phase and flat-array vectors
// should beat hash tables. All modes must return identical clusters; the table
// prints the per-mode wall time and the shared conductance.
func (w *Workspace) AblationFrontierMode() error {
	g, err := w.Graph("soc-LJ")
	if err != nil {
		return err
	}
	seed, _ := w.Seed("soc-LJ")
	// Seed set: the representative plus its first 63 neighbors.
	seeds := []uint32{seed}
	for _, v := range g.Neighbors(seed) {
		if len(seeds) >= 64 {
			break
		}
		seeds = append(seeds, v)
	}
	pr := w.params
	eps := pr.PREps / 10
	w.header("A4", "PR-Nibble frontier modes on soc-LJ (big seed set, low eps)")
	w.printf("alpha=%g eps=%g seeds=%d\n", pr.PRAlpha, eps, len(seeds))
	w.printf("%8s %12s %12s %12s %10s\n", "mode", "time (s)", "pushes", "iterations", "phi")
	var basePhi float64
	var baseSize int
	for i, mode := range []core.FrontierMode{core.FrontierSparse, core.FrontierDense, core.FrontierAuto} {
		var vec *sparse.Map
		var st core.Stats
		d := w.timeIt(func() {
			vec, st = core.PRNibbleRun(g, seeds, pr.PRAlpha, eps, core.OptimizedRule, 1, core.RunConfig{Procs: w.cfg.Procs, Frontier: mode})
		})
		res := core.SweepCutPar(g, vec, w.cfg.Procs, nil)
		w.printf("%8s %12s %12d %12d %10.4f\n", mode, seconds(d), st.Pushes, st.Iterations, res.Conductance)
		if i == 0 {
			basePhi, baseSize = res.Conductance, len(res.Cluster)
		} else if math.Abs(res.Conductance-basePhi) > 1e-9 || len(res.Cluster) != baseSize {
			// Surface a divergence without killing the run: on large
			// generated inputs a near-tied sweep value can move by an ULP
			// between accumulation orders (the strict equality contract is
			// enforced by the core determinism suite on its fixtures).
			w.printf("WARNING: mode %v diverged from sparse (phi %v size %d, want %v %d)\n",
				mode, res.Conductance, len(res.Cluster), basePhi, baseSize)
		}
	}
	w.printf("expected shape: dense beats sparse here; auto tracks the winner per iteration\n")
	return nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func itoa(n int) string { return strconv.Itoa(n) }
