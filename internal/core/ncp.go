package core

import (
	"sort"

	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/rng"
	"parcluster/internal/workspace"
)

// ncp.go computes network community profile (NCP) plots (§4, Figure 12; the
// concept is from Leskovec et al. [29]): the best conductance found for
// clusters of each size, as a function of size. Following the paper, the
// profile is collected by running PR-Nibble from many random seed vertices
// while varying alpha and epsilon; every sweep contributes the conductance
// of *every* prefix, not only its winning cluster, so one run yields data
// points at all sizes along its sweep order.

// NCPOptions configures an NCP computation.
type NCPOptions struct {
	// Seeds is the number of random seed vertices (the paper uses 10^5 for
	// Figure 12).
	Seeds int
	// SeedVertices, when non-empty, is an explicit list of seed vertices to
	// profile from instead of Seeds random draws. Out-of-range and isolated
	// vertices are skipped.
	SeedVertices []uint32
	// Alphas and Epsilons are the PR-Nibble parameter grids; every seed is
	// run with every (alpha, epsilon) combination. Defaults: {0.1, 0.01,
	// 0.001} and {1e-5, 1e-6, 1e-7}.
	Alphas, Epsilons []float64
	// MaxSize caps the recorded cluster size (0 = n). Sweep prefixes longer
	// than this still run; they just do not contribute points.
	MaxSize int
	// Procs is the worker count for the inner parallel algorithms.
	Procs int
	// Seed drives the random choice of seed vertices.
	Seed uint64
	// Cancel, when non-nil, stops the computation early at the next seed
	// boundary once closed; the points collected so far are returned. Long
	// profiles (the paper's 1e5 seeds) would otherwise be unstoppable.
	Cancel <-chan struct{}
	// Workspace, when non-nil, is the pool the inner PR-Nibble runs borrow
	// their graph-sized scratch state from. When nil, NCP creates a private
	// pool for the profile: the inner loop runs seeds x alphas x epsilons
	// diffusions back to back, exactly the steady-state regime the pool
	// exists for.
	Workspace *workspace.Pool
}

func (o *NCPOptions) defaults() {
	if o.Seeds <= 0 {
		o.Seeds = 100
	}
	if len(o.Alphas) == 0 {
		o.Alphas = []float64{0.1, 0.01, 0.001}
	}
	if len(o.Epsilons) == 0 {
		o.Epsilons = []float64{1e-5, 1e-6, 1e-7}
	}
}

// NCPPoint is one point of the profile: the best (lowest) conductance seen
// for any swept cluster of exactly Size vertices.
type NCPPoint struct {
	Size        int     `json:"size"`
	Conductance float64 `json:"conductance"`
}

// NCP computes the network community profile of g. The returned points are
// sorted by size and form the raw scatter; LowerEnvelope turns them into
// the monotone staircase usually plotted.
func NCP(g graph.Graph, opts NCPOptions) []NCPPoint {
	opts.defaults()
	n := g.NumVertices()
	if n == 0 {
		return nil
	}
	maxSize := opts.MaxSize
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	best := make(map[int]float64)
	r := rng.New(opts.Seed)
	procs := parallel.ResolveProcs(opts.Procs)
	pool := opts.Workspace
	if pool == nil || pool.Universe() != n {
		pool = workspace.NewPool(n)
	}
	// One result arena serves the whole profile: each inner run snapshots
	// and sweeps into it, reads its prefix conductances, and recycles it in
	// place for the next run. Released on both (non-panicking) return paths
	// below — like the workspace, an arena abandoned by a panic is left to
	// the GC rather than recycled.
	arena := pool.AcquireResult()
	runs := opts.Seeds
	if len(opts.SeedVertices) > 0 {
		runs = len(opts.SeedVertices)
	}
	for s := 0; s < runs; s++ {
		if opts.Cancel != nil {
			select {
			case <-opts.Cancel:
				arena.Release()
				return finishNCP(best)
			default:
			}
		}
		var seed uint32
		if len(opts.SeedVertices) > 0 {
			seed = opts.SeedVertices[s]
			// Compare in uint64: int(seed) can wrap negative on 32-bit.
			if uint64(seed) >= uint64(n) {
				continue
			}
		} else {
			seed = uint32(r.Intn(n))
		}
		if g.Degree(seed) == 0 {
			continue // isolated vertices produce no sweepable mass
		}
		for _, alpha := range opts.Alphas {
			for _, eps := range opts.Epsilons {
				arena.Reset()
				vec, _ := PRNibbleRun(g, []uint32{seed}, alpha, eps, OptimizedRule, 1,
					RunConfig{Procs: procs, Workspace: pool, Result: arena})
				if vec.Len() == 0 {
					continue
				}
				res := SweepCutPar(g, vec, procs, arena)
				for i, phi := range res.PrefixConductance {
					size := i + 1
					if size > maxSize {
						break
					}
					if old, ok := best[size]; !ok || phi < old {
						best[size] = phi
					}
				}
			}
		}
	}
	arena.Release()
	return finishNCP(best)
}

func finishNCP(best map[int]float64) []NCPPoint {
	points := make([]NCPPoint, 0, len(best))
	for size, phi := range best {
		points = append(points, NCPPoint{Size: size, Conductance: phi})
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Size < points[j].Size })
	return points
}

// LowerEnvelope buckets NCP points into log-spaced size bins (ratio ~1.25)
// and keeps the minimum conductance per bin — the curve the paper plots.
func LowerEnvelope(points []NCPPoint) []NCPPoint {
	if len(points) == 0 {
		return nil
	}
	var out []NCPPoint
	binHi := 1
	cur := NCPPoint{Size: 0, Conductance: 2}
	flush := func() {
		if cur.Size > 0 {
			out = append(out, cur)
		}
	}
	for _, pt := range points {
		for pt.Size > binHi {
			flush()
			cur = NCPPoint{Size: 0, Conductance: 2}
			next := binHi * 5 / 4
			if next == binHi {
				next++
			}
			binHi = next
		}
		if pt.Conductance < cur.Conductance {
			cur = pt
		}
	}
	flush()
	return out
}
