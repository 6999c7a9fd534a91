package core

import (
	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/rng"
	"parcluster/internal/workspace"
)

// evolving.go implements the evolving set process of Andersen and Peres
// ("Finding sparse cuts locally using evolving sets", STOC 2009), the fifth
// local algorithm the paper discusses: §5 notes the authors implemented it,
// found its behaviour to vary widely with the random choices, and omitted
// it from the evaluation while observing that "the algorithm can be
// parallelized work-efficiently by using data-parallel operations". Both a
// sequential and that data-parallel implementation are provided.
//
// The process maintains a vertex set S plus the position X of a lazy random
// walk, starting from S = {seed}, X = seed ("the algorithm maintains the
// position of a random walk starting at the seed vertex", §5). Each step
// advances the walk by one lazy step, draws a threshold U uniformly in
// (0, Q(X, S)] — the Diaconis-Fill coupling, which keeps the walk inside
// the evolving set so the process cannot die — and replaces S with
// {v : Q(v, S) >= U}, where Q(v, S) = 1/2*[v in S] + |N(v) ∩ S| / (2 d(v))
// is the probability that one lazy walk step from v lands in S. Only S and
// its neighbors can have Q > 0, so each step costs O(vol(S) + vol(∂S)) —
// local. The conductance of every intermediate set is tracked and the best
// set is returned.
//
// Q(v, S) is computed from integer neighbor counts, so the sequential and
// parallel versions make bit-identical threshold comparisons and produce
// identical set trajectories for the same random stream — which the tests
// pin down.

// EvolvingSetOptions configures the evolving set process.
type EvolvingSetOptions struct {
	// MaxIter bounds the number of evolution steps (default 100).
	MaxIter int
	// TargetPhi stops the process early once a set at or below this
	// conductance is seen (0 = run all MaxIter steps).
	TargetPhi float64
	// GrowOnly caps thresholds at 1/2, which makes the set monotone
	// non-shrinking (every current member has Q >= 1/2). The unrestricted
	// process (default) can shrink the set and exhibits the high-variance
	// behaviour §5 describes.
	GrowOnly bool
	// Seed drives the random thresholds.
	Seed uint64
	// Procs is the worker count for the parallel version.
	Procs int
	// Frontier selects the parallel version's frontier representation
	// (FrontierAuto switches per iteration; the trajectory is identical in
	// every mode).
	Frontier FrontierMode
	// Workspace, when non-nil, is the pool the parallel version borrows its
	// scratch state from (see core.RunConfig.Workspace). The
	// trajectory is identical with and without a pool.
	Workspace *workspace.Pool
	// Cancel, when non-nil, stops the parallel version at the next
	// evolution step once it fires; the best set seen so far is returned
	// (see core.RunConfig.Cancel for the partial-result contract).
	Cancel <-chan struct{}
	// Observer, when non-nil, receives the parallel version's per-step
	// frontier-engine events (see core.RunConfig.Observer): each evolution
	// step's neighbor-count phase is one engine round.
	Observer Observer
}

func (o *EvolvingSetOptions) defaults() {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
}

// EvolvingSetResult reports the best set encountered.
type EvolvingSetResult struct {
	// Set is the lowest-conductance set seen, in unspecified order.
	Set []uint32
	// Conductance, Volume and Cut describe that set.
	Conductance float64
	Volume, Cut uint64
	// Steps is the number of evolution steps performed.
	Steps int
}

// esWalkStep advances the coupled lazy random walk: stay with probability
// 1/2, otherwise move to a uniform neighbor (an isolated vertex stays put).
func esWalkStep(g graph.Graph, x uint32, r *rng.RNG) uint32 {
	if r.Bool() {
		return x
	}
	d := int(g.Degree(x))
	if d == 0 {
		return x
	}
	// NeighborAt decodes at most one sub-block on a compressed graph —
	// the walk touches one edge, not the whole adjacency list.
	return g.NeighborAt(x, uint32(r.Intn(d)))
}

// esThreshold draws U uniformly in (0, qx] (capped at 1/2 in grow-only
// mode), where qx = Q(X, S) for the walk's new position — the coupling that
// guarantees X stays in the next set.
func esThreshold(r *rng.RNG, qx float64, growOnly bool) float64 {
	hi := qx
	if growOnly && hi > 0.5 {
		hi = 0.5
	}
	return hi * (1 - r.Float64()) // in (0, hi]
}

// EvolvingSetSeq is the sequential evolving set process.
func EvolvingSetSeq(g graph.Graph, seed uint32, opts EvolvingSetOptions) (EvolvingSetResult, Stats) {
	checkSeed(g, seed)
	opts.defaults()
	var st Stats
	r := rng.New(opts.Seed)
	inS := map[uint32]bool{seed: true}
	walk := seed
	best := bestTracker{g: g}
	best.update([]uint32{seed})
	totalVol := g.TotalVolume()
	for step := 0; step < opts.MaxIter; step++ {
		// Count S-neighbors for S and its boundary.
		counts := map[uint32]uint32{}
		var vol uint64
		var adj []uint32
		for v := range inS {
			vol += uint64(g.Degree(v))
			ns := g.NeighborsInto(adj, v)
			adj = ns
			for _, w := range ns {
				counts[w]++
			}
		}
		st.EdgesTouched += int64(vol)
		st.Pushes += int64(len(inS))
		st.Iterations++
		walk = esWalkStep(g, walk, &r)
		qx := float64(counts[walk]) / (2 * float64(max32(g.Degree(walk), 1)))
		if inS[walk] {
			qx += 0.5
		}
		u := esThreshold(&r, qx, opts.GrowOnly)
		nextS := make(map[uint32]bool, len(inS))
		consider := func(v uint32) {
			q := float64(counts[v]) / (2 * float64(g.Degree(v)))
			if inS[v] {
				q += 0.5
			}
			if q >= u {
				nextS[v] = true
			}
		}
		for v := range inS {
			consider(v)
		}
		for v := range counts {
			if !inS[v] {
				consider(v)
			}
		}
		inS = nextS
		if len(inS) == 0 {
			// Unreachable under the coupling (the walk always qualifies);
			// kept as a defensive stop for degenerate graphs.
			res := best.result()
			res.Steps = step + 1
			return res, st
		}
		set := make([]uint32, 0, len(inS))
		for v := range inS {
			set = append(set, v)
		}
		best.update(set)
		if opts.TargetPhi > 0 && best.phi <= opts.TargetPhi {
			res := best.result()
			res.Steps = step + 1
			return res, st
		}
		if uint64(2)*best.lastVol > totalVol {
			break // the set swallowed half the graph; no local cut here
		}
	}
	res := best.result()
	res.Steps = st.Iterations
	return res, st
}

// EvolvingSetPar is the data-parallel evolving set process: the neighbor
// counts are an edge phase with integer fetch-and-add (driven by the shared
// frontier engine, which auto-selects the sparse or dense traversal per
// step), and the membership filter is a vertexFilter over S and its touched
// boundary.
func EvolvingSetPar(g graph.Graph, seed uint32, opts EvolvingSetOptions) (EvolvingSetResult, Stats) {
	checkSeed(g, seed)
	opts.defaults()
	procs := parallel.ResolveProcs(opts.Procs)
	ws := acquireWorkspace(opts.Workspace, g.NumVertices())
	res, st := evolvingSetSteps(g, seed, opts, procs, ws)
	// Release only on the non-panicking path (see acquireWorkspace).
	ws.Release(procs)
	return res, st
}

// evolvingSetSteps is the evolution loop proper, run entirely against
// scratch state borrowed from ws.
func evolvingSetSteps(g graph.Graph, seed uint32, opts EvolvingSetOptions, procs int, ws *workspace.Workspace) (EvolvingSetResult, Stats) {
	var st Stats
	r := rng.New(opts.Seed)
	eng := newFrontierEngine(g, procs, opts.Frontier, &st, ws, opts.Observer)
	inS, counts := eng.vector(false), eng.vector(true)
	S := eng.seed(inS, []uint32{seed}, 1)
	walk := seed
	best := bestTracker{g: g}
	best.update([]uint32{seed})
	totalVol := g.TotalVolume()
	spec := roundSpec{
		scratch: counts,
		source:  func(int, uint32) (float64, float64) { return 0, 1 },
	}
	var members []uint32 // S's vertices, for the tracker
	for step := 0; step < opts.MaxIter; step++ {
		if cancelled(opts.Cancel) {
			break // best set so far; see EvolvingSetOptions.Cancel
		}
		eng.round(S, spec)
		walk = esWalkStep(g, walk, &r)
		qx := 0.0
		if k, ok := eng.key(walk); ok {
			qx = counts.get(k) / (2 * float64(max32(g.Degree(walk), 1)))
			if inS.get(k) != 0 {
				qx += 0.5
			}
		}
		u := esThreshold(&r, qx, opts.GrowOnly)
		// Candidates: current members plus every vertex that received a
		// count (the engine round's touched set). Membership and counts are
		// exact integers, so the comparison below matches the sequential
		// version bit for bit, in every frontier mode.
		qAbove := func(k uint32, count float64) bool {
			q := count / (2 * float64(eng.degree(k)))
			if inS.get(k) != 0 {
				q += 0.5
			}
			return q >= u
		}
		nextMembers := eng.advance(counts, nil, qAbove)
		// A member with no neighbour in S receives no count, so the
		// candidates above miss it: filter S itself for those and merge
		// without duplicates.
		merged := append([]uint32{}, nextMembers...)
		for _, k := range S {
			if counts.get(k) == 0 && qAbove(k, 0) {
				merged = append(merged, k)
			}
		}
		// inS is S's indicator: clear the old members, then mark the new.
		for _, k := range S {
			inS.add(k, -1)
		}
		S = merged
		if len(S) == 0 {
			// Unreachable under the coupling; defensive stop.
			res := best.result()
			res.Steps = step + 1
			return res, st
		}
		for _, k := range S {
			inS.add(k, 1)
		}
		members = members[:0]
		for _, k := range S {
			members = append(members, eng.vertex(k))
		}
		best.update(members)
		if opts.TargetPhi > 0 && best.phi <= opts.TargetPhi {
			res := best.result()
			res.Steps = step + 1
			return res, st
		}
		if uint64(2)*best.lastVol > totalVol {
			break
		}
	}
	res := best.result()
	res.Steps = st.Iterations
	return res, st
}

// bestTracker keeps the lowest-conductance set seen so far.
type bestTracker struct {
	g       graph.Graph
	set     []uint32
	phi     float64
	vol     uint64
	cut     uint64
	lastVol uint64
	started bool
}

func (b *bestTracker) update(set []uint32) {
	vol := b.g.Volume(set)
	cut := b.g.Boundary(set)
	phi := graph.ConductanceFrom(b.g.TotalVolume(), vol, cut)
	b.lastVol = vol
	if !b.started || phi < b.phi {
		b.started = true
		// Reuse the tracker's buffer across improvements: the set is copied
		// on every new best, so a fresh allocation each time is pure churn.
		b.set = append(b.set[:0], set...)
		b.phi, b.vol, b.cut = phi, vol, cut
	}
}

func (b *bestTracker) result() EvolvingSetResult {
	if !b.started {
		return EvolvingSetResult{Conductance: 1}
	}
	return EvolvingSetResult{
		Set:         b.set,
		Conductance: b.phi,
		Volume:      b.vol,
		Cut:         b.cut,
	}
}

// max32 returns the larger of two uint32 values.
func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}
