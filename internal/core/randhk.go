package core

import (
	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/rng"
	"parcluster/internal/sparse"
)

// randhk.go implements the randomized heat kernel PageRank of Chung and
// Simpson [10] (§3.5): run N independent lazy-free random walks from the
// seed, each of length k with probability e^-t t^k / k! (clamped to K), and
// estimate the heat kernel distribution by the empirical distribution of
// the walks' final vertices. Theorem 5: O(NK) work and O(K + log N) depth.
//
// Unlike the other three diffusions this needs no Ligra machinery — the
// walks are independent. The paper found the obvious parallel aggregation
// (fetch-and-add of every walk's destination into a shared table) scales
// poorly because many walks end on the same few vertices; its remedy is to
// collect destinations in an array, integer-sort it, and count run lengths
// with prefix sums and filter. Both versions are implemented:
// RandHKPRRun (sort-based, the paper's choice) and RandHKPRParContended
// (the negative result, kept as ablation A1).
//
// Both sequential and parallel versions derive walk i's randomness from
// rng.Split(seed, i), so all of them return bit-identical vectors — a
// stronger guarantee than the paper's (which only matches distributions).

// walkFrom runs one random walk of sampled length from start and returns
// its final vertex. A walk stopping at an isolated vertex stays there.
func walkFrom(g graph.Graph, start uint32, length int, r *rng.RNG) uint32 {
	v := start
	for step := 0; step < length; step++ {
		d := int(g.Degree(v))
		if d == 0 {
			break
		}
		// One edge per step: NeighborAt decodes at most one sub-block on a
		// compressed graph instead of the walk vertex's whole list.
		v = g.NeighborAt(v, uint32(r.Intn(d)))
	}
	return v
}

// RandHKPRSeq is the sequential rand-HK-PR: N walks one after another,
// counting final vertices in a sparse map. The returned vector is the
// empirical distribution (1/N) * counts. Each walk starts from a uniformly
// drawn member of the seed set (the seed distribution of [10] with uniform
// mass over the set).
func RandHKPRSeq(g graph.Graph, seeds []uint32, t float64, K, N int, walkSeed uint64) (*sparse.Map, Stats) {
	seeds = normalizeSeeds(g, seeds)
	var st Stats
	tp := rng.NewTruncPoisson(t, K)
	p := sparse.NewMap(16)
	for i := 0; i < N; i++ {
		r := rng.Split(walkSeed, uint64(i))
		start := seeds[0]
		if len(seeds) > 1 {
			start = seeds[r.Intn(len(seeds))]
		}
		length := tp.Sample(&r)
		dest := walkFrom(g, start, length, &r)
		p.Add(dest, 1)
		st.Pushes++
		st.EdgesTouched += int64(length)
	}
	st.Iterations = N
	scaleMap(p, 1/float64(N))
	return p, st
}

// RandHKPRRun is the paper's parallel rand-HK-PR: all walks run in
// parallel storing destinations into an array A; destinations are then
// mapped to dense IDs with a concurrent hash table, integer-sorted with the
// parallel radix sort, and counted by detecting run boundaries with filter
// over the sorted array — no contended atomics anywhere on the hot path.
// Walk i draws its start from stream Split(walkSeed, i) exactly as the
// sequential version does, so the bit-identical-output guarantee extends to
// seed sets.
//
// Of cfg only Procs, Result, Cancel and Observer are consulted: the walks
// need no frontier engine and no graph-sized scratch, so Frontier and
// Workspace are ignored; Result, when set, is the arena the empirical
// distribution is built in (see RunConfig.Result for the ownership
// contract). Cancellation is observed every 256 walks per worker; a
// cancelled run returns a truncated (not renormalized) distribution that
// callers must discard.
func RandHKPRRun(g graph.Graph, seeds []uint32, t float64, K, N int, walkSeed uint64, cfg RunConfig) (*sparse.Map, Stats) {
	seeds = normalizeSeeds(g, seeds)
	procs := parallel.ResolveProcs(cfg.Procs)
	var st Stats
	tp := rng.NewTruncPoisson(t, K)
	A := make([]uint32, N)
	steps := make([]int64, (N+4095)/4096)
	parallel.ForRange(procs, N, 4096, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			if i&255 == 0 && cancelled(cfg.Cancel) {
				break // remaining destinations stay 0; caller discards
			}
			r := rng.Split(walkSeed, uint64(i))
			start := seeds[0]
			if len(seeds) > 1 {
				start = seeds[r.Intn(len(seeds))]
			}
			length := tp.Sample(&r)
			A[i] = walkFrom(g, start, length, &r)
			local += int64(length)
		}
		steps[lo/4096] = local
	})
	st.Pushes = int64(N)
	st.Iterations = N
	st.EdgesTouched = parallel.Sum(procs, steps)
	if cfg.Observer != nil {
		// No frontier rounds here — the walks are independent — so emit one
		// synthetic event summarizing the whole walk phase: N "pushes" (one
		// per walk), the total steps as edges touched, sparse by definition.
		cfg.Observer.Round(0, N, st.Pushes, st.EdgesTouched, false)
	}

	// Map destinations (at most N distinct) to dense IDs so the radix sort
	// key range is [0, N), as in the paper's O(N)-work integer sort.
	idm := sparse.NewIDMap(N)
	ids := make([]uint32, N)
	parallel.For(procs, N, 2048, func(i int) {
		ids[i] = uint32(idm.Assign(A[i]))
	})
	distinct := idm.Count()
	rev := make([]uint32, distinct)
	idm.ForEach(func(k uint32, id int32) { rev[id] = k })
	parallel.RadixSortUint32(procs, ids, uint32(distinct-1))

	// Boundary detection: positions where the sorted value changes give the
	// start of each run; consecutive boundaries give the counts.
	starts := parallel.FilterIndex(procs, N, func(i int) bool {
		return i == 0 || ids[i] != ids[i-1]
	})
	p := cfg.Result.Map(distinct)
	invN := 1 / float64(N)
	for bi, start := range starts {
		end := N
		if bi+1 < len(starts) {
			end = starts[bi+1]
		}
		p.Set(rev[ids[start]], float64(end-start)*invN)
	}
	return p, st
}

// RandHKPRParContended is the naive parallel aggregation (every walk does a
// fetch-and-add on its destination's table entry). The paper reports this
// "led to poor speed up since many random walks end up on the same vertex
// causing high memory contention"; it is retained to reproduce that
// comparison (ablation A1 in DESIGN.md).
func RandHKPRParContended(g graph.Graph, seed uint32, t float64, K, N int, walkSeed uint64, procs int) (*sparse.Map, Stats) {
	checkSeed(g, seed)
	procs = parallel.ResolveProcs(procs)
	var st Stats
	tp := rng.NewTruncPoisson(t, K)
	table := sparse.NewConcurrent(N)
	steps := make([]int64, (N+4095)/4096)
	parallel.ForRange(procs, N, 4096, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			r := rng.Split(walkSeed, uint64(i))
			length := tp.Sample(&r)
			table.Add(walkFrom(g, seed, length, &r), 1)
			local += int64(length)
		}
		steps[lo/4096] = local
	})
	st.Pushes = int64(N)
	st.Iterations = N
	st.EdgesTouched = parallel.Sum(procs, steps)
	p := vecFromTable(table, nil)
	scaleMap(p, 1/float64(N))
	return p, st
}
