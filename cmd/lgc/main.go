// Command lgc runs a single local graph clustering query: load or generate
// a graph, diffuse from a seed vertex with one of the paper's four
// algorithms, sweep, and print the cluster — the paper's interactive-analyst
// workflow (§1) as a command line.
//
// Usage:
//
//	lgc -gen barbell:k=20 -algo prnibble -seed 0
//	lgc -graph web.adj -algo hkpr -seed 12345 -procs 8
//	lgc -gen soc-LJ -algo nibble -seed -1        # -1 = largest component
//	lgc -gen soc-LJ -eps 1e-8 -frontier dense    # pin the dense frontier path
//
// The -frontier flag selects the diffusion engine's frontier representation:
// "auto" (default) switches between the sparse ID-list and dense bitmap
// representations per iteration via Ligra's direction heuristic, "sparse"
// and "dense" pin one. All modes return identical clusters.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"parcluster"
	"parcluster/internal/gen"
)

func main() {
	var (
		graphFile = flag.String("graph", "", "graph file (.adj, .bin, or edge list)")
		genSpec   = flag.String("gen", "", "generator spec, e.g. 'barbell:k=20' or a Table 2 stand-in name")
		algo      = flag.String("algo", "prnibble", "algorithm: nibble, prnibble, hkpr, randhk, evolving")
		seed      = flag.Int("seed", -1, "seed vertex (-1 = a vertex in the largest component)")
		procs     = flag.Int("procs", 0, "worker count (0 = all cores)")
		seq       = flag.Bool("seq", false, "use the sequential reference implementations")
		eps       = flag.Float64("eps", 0, "epsilon (0 = paper default for the algorithm)")
		alpha     = flag.Float64("alpha", 0.01, "PR-Nibble teleportation parameter")
		tIter     = flag.Int("T", 20, "Nibble iteration cap")
		hkT       = flag.Float64("t", 10, "heat kernel temperature")
		hkN       = flag.Int("N", 20, "HK-PR Taylor degree")
		walks     = flag.Int("walks", 100000, "rand-HK-PR walk count")
		walkLen   = flag.Int("K", 10, "rand-HK-PR maximum walk length")
		frontier  = flag.String("frontier", "auto", "frontier representation: auto, sparse, dense")
		maxPrint  = flag.Int("print", 20, "print at most this many cluster members")
	)
	flag.Parse()
	if err := run(*graphFile, *genSpec, *algo, *seed, *procs, *seq, *eps, *alpha,
		*tIter, *hkT, *hkN, *walks, *walkLen, *frontier, *maxPrint); err != nil {
		fmt.Fprintln(os.Stderr, "lgc:", err)
		os.Exit(1)
	}
}

func run(graphFile, genSpec, algo string, seed, procs int, seq bool, eps, alpha float64,
	tIter int, hkT float64, hkN, walks, walkLen int, frontier string, maxPrint int) error {
	fmode, err := parcluster.ParseFrontierMode(frontier)
	if err != nil {
		return err
	}
	g, err := loadGraph(graphFile, genSpec, procs)
	if err != nil {
		return err
	}
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	if g.NumVertices() == 0 {
		return fmt.Errorf("empty graph")
	}
	var sv uint32
	if seed < 0 {
		rep, size := g.LargestComponent()
		sv = rep
		fmt.Printf("seed: %d (largest component, %d vertices)\n", sv, size)
	} else {
		// Validate before the uint32 conversion: a value past NumVertices()
		// must be a clear error, never a wrapped-around vertex ID.
		if sv, err = seedVertex(g, seed); err != nil {
			return err
		}
	}

	// One query only borrows from the pool once, but wiring it keeps the CLI
	// on the same code path the batch and serving layers exercise.
	opts := parcluster.ClusterOptions{Method: algo, Workspace: parcluster.NewWorkspacePool(g)}
	opts.Nibble = parcluster.NibbleOptions{Epsilon: orDefault(eps, 1e-8), T: tIter, Procs: procs, Sequential: seq, Frontier: fmode}
	opts.PRNibble = parcluster.PRNibbleOptions{Alpha: alpha, Epsilon: orDefault(eps, 1e-7), Procs: procs, Sequential: seq, Frontier: fmode}
	opts.HKPR = parcluster.HKPROptions{T: hkT, N: hkN, Epsilon: orDefault(eps, 1e-7), Procs: procs, Sequential: seq, Frontier: fmode}
	opts.RandHKPR = parcluster.RandHKPROptions{T: hkT, K: walkLen, Walks: walks, Procs: procs, Sequential: seq}
	opts.EvolvingSet = parcluster.EvolvingSetOptions{Procs: procs, Frontier: fmode}
	opts.Sweep = parcluster.SweepOptions{Procs: procs}
	if seq {
		opts.Sweep.Procs = 1 // the sequential sweep
	}

	start := time.Now()
	cluster, err := parcluster.FindCluster(g, sv, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	fmt.Printf("algorithm: %s (%s)\n", algo, mode(seq))
	fmt.Printf("time: %v\n", elapsed)
	fmt.Printf("stats: %v\n", cluster.Stats)
	fmt.Printf("cluster: size=%d conductance=%.6g volume=%d cut=%d\n",
		len(cluster.Members), cluster.Conductance, cluster.Volume, cluster.Cut)
	show := cluster.Members
	suffix := ""
	if len(show) > maxPrint {
		show = show[:maxPrint]
		suffix = fmt.Sprintf(" ... (%d more)", len(cluster.Members)-maxPrint)
	}
	fmt.Printf("members: %v%s\n", show, suffix)
	return nil
}

func loadGraph(graphFile, genSpec string, procs int) (*parcluster.Graph, error) {
	switch {
	case graphFile != "" && genSpec != "":
		return nil, fmt.Errorf("pass -graph or -gen, not both")
	case graphFile != "":
		return parcluster.LoadFile(procs, graphFile)
	case genSpec != "":
		spec, err := gen.ParseSpec(genSpec)
		if err != nil {
			return nil, err
		}
		return gen.Generate(procs, spec)
	default:
		return nil, fmt.Errorf("pass -graph <file> or -gen <spec> (known recipes: %v)", gen.KnownRecipes())
	}
}

// seedVertex bounds-checks a user-supplied seed vertex against the graph
// before converting it to a vertex ID.
func seedVertex(g *parcluster.Graph, seed int) (uint32, error) {
	if seed < 0 || seed >= g.NumVertices() {
		return 0, fmt.Errorf("seed vertex %d out of range [0,%d)", seed, g.NumVertices())
	}
	return uint32(seed), nil
}

func orDefault(v, def float64) float64 {
	if v <= 0 {
		return def
	}
	return v
}

func mode(seq bool) string {
	if seq {
		return "sequential"
	}
	return "parallel"
}
