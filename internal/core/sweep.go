package core

import (
	"math"
	"sync/atomic"

	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
)

// sweep.go implements the sweep cut rounding procedure (§3.1): sort the
// support of a diffusion vector by degree-normalized mass, evaluate the
// conductance of every prefix, and return the best prefix.
//
// Two implementations:
//
//   - SweepCut: the sweep every caller runs. With one worker it is the
//     standard sequential sweep (sort + incremental boundary maintenance),
//     O(N log N + vol(S_N)) work, which measured faster than the parallel
//     loop at one worker (DESIGN.md §7). With more, per-rank crossing-edge
//     deltas are accumulated with fetch-and-add into a rank-indexed array
//     and prefix-summed — the same work and O(log vol) depth as Theorem 1,
//     with the integer sort replaced by direct bucket accumulation.
//   - SweepCutParSort: the faithful Theorem 1 algorithm, building the
//     (±1, rank) pair array Z, integer-sorting it by rank, and recovering
//     per-rank crossing counts with prefix sums — including the worked
//     example of §3.1, which the tests reproduce exactly (ablation A2
//     compares it with SweepCut).
//
// Both order ties (equal p[v]/d(v)) by ascending vertex ID, making the
// sweep order — and therefore the returned cluster — identical across
// implementations, worker counts and the order the vector lists its entries
// in. Every piece of a sweep's result and scratch is support-sized
// (volume-sized for the sort-based sweep's Z) and allocated per call; the
// returned Cluster, Order and PrefixConductance belong to the caller
// (DESIGN.md §6).

// SweepResult is the outcome of a sweep cut.
type SweepResult struct {
	// Cluster is the minimum-conductance prefix (vertex IDs in sweep
	// order). Empty when the input vector has no positive entries.
	Cluster []uint32
	// Conductance is φ(Cluster), or 1 for an empty input.
	Conductance float64
	// Volume and Cut are vol(Cluster) and |∂(Cluster)|.
	Volume, Cut uint64
	// Order is the full sweep order over the vector's support.
	Order []uint32
	// PrefixConductance[i] is φ({Order[0..i]}); the network community
	// profile consumes every prefix, not just the winner.
	PrefixConductance []float64
}

// sweepOrder extracts the positive support of vec and sorts it by
// non-increasing p[v]/d(v), breaking ties by ascending vertex ID (a total
// order, so every implementation produces the same permutation).
// Zero-degree vertices sort first (infinite normalized mass) and can never
// win: every prefix they head has zero volume and conductance 1. Each score
// is computed once, and what is sorted is (score, vertex) pairs, so a
// comparison reads two pairs and nothing else.
func sweepOrder(procs int, g graph.Graph, vec *sparse.Vector) []uint32 {
	ids, masses := vec.Entries()
	pairs := make([]scored, 0, len(ids))
	for i, v := range ids {
		if mass := masses[i]; mass > 0 {
			score := math.Inf(1)
			if d := g.Degree(v); d > 0 {
				score = mass / float64(d)
			}
			pairs = append(pairs, scored{score: score, id: v})
		}
	}
	var scratch []scored
	if n := parallel.SortScratchLen(procs, len(pairs)); n > 0 {
		scratch = make([]scored, n)
	}
	parallel.SortScratch(procs, pairs, scratch, func(a, b scored) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id < b.id
	})
	order := make([]uint32, len(pairs))
	for i, p := range pairs {
		order[i] = p.id
	}
	return order
}

// scored is a vertex with its sweep score p[v]/d(v): what sweepOrder sorts,
// so that a comparison needs no lookup.
type scored struct {
	score float64
	id    uint32
}

func emptySweep() SweepResult { return SweepResult{Conductance: 1} }

// SweepCut rounds vec into its minimum-conductance sweep prefix using procs
// workers (<= 0: all cores). One worker runs the sequential sweep: one pass
// over the sweep order maintaining the boundary incrementally. More run the
// work-efficient parallel sweep: crossing counts per rank are obtained by
// accumulating +1/-1 contributions of every edge with fetch-and-add into a
// rank-indexed array, then prefix-summing. Both return the same result.
func SweepCut(g graph.Graph, vec *sparse.Vector, procs int) SweepResult {
	procs = parallel.ResolveProcs(procs)
	order := sweepOrder(procs, g, vec)
	N := len(order)
	if N == 0 {
		return emptySweep()
	}
	if procs == 1 {
		return sweepSerial(g, order)
	}
	// rank+1 stored so that Get == 0 means "outside the support".
	rank := sparse.NewConcurrent(N)
	parallel.For(procs, N, 1024, func(i int) {
		rank.Set(order[i], float64(i+1))
	})
	// Per-edge contributions. Each undirected edge inside the support is
	// visited twice; only the visit from the lower-ranked endpoint
	// contributes (+1 at its rank, -1 at the partner's), matching the
	// paper's case (a) / case (b) split. The source's rank is its index in
	// the order, so only the destination is looked up. The edge pass
	// collects no output frontier, and the degree offsets it chunks by are
	// the prefix volumes, one slot on.
	offs := make([]uint64, N+1)
	graph.DegreeOffsets(procs, g, order, offs)
	cutDelta := make([]int64, N)
	ligra.EdgeApplyIndexedScratch(procs, g, ligra.FromIDs(order), offs,
		func(rs int, _, d uint32) {
			rd := int(rank.Get(d)) - 1
			if rd < 0 {
				rd = N // outside the support: rank N+1 in the paper's terms
			}
			if rs >= rd {
				return
			}
			atomic.AddInt64(&cutDelta[rs], 1)
			if rd < N {
				atomic.AddInt64(&cutDelta[rd], -1)
			}
		})
	cuts := make([]int64, N)
	parallel.ScanInclusive(procs, cutDelta, cuts)
	return sweepFromCuts(g, order, offs[1:], cuts, procs)
}

// sweepSerial is SweepCut's one-worker pass over a nonempty sweep order.
func sweepSerial(g graph.Graph, order []uint32) SweepResult {
	rank := sparse.NewConcurrent(len(order)) // rank+1, as in SweepCut
	for i, v := range order {
		rank.AddSerial(v, float64(i+1))
	}
	totalVol := g.TotalVolume()
	prefix := make([]float64, len(order))
	var vol uint64
	var cut int64
	best, bestPhi := 0, math.Inf(1)
	var bestVol, bestCut uint64
	var adj []uint32
	for i, v := range order {
		vol += uint64(g.Degree(v))
		ns := g.NeighborsInto(adj, v)
		adj = ns
		for _, w := range ns {
			if rw := int(rank.Get(w)) - 1; rw >= 0 && rw < i {
				cut-- // edge became internal
			} else {
				cut++ // edge leaves the growing set
			}
		}
		phi := graph.ConductanceFrom(totalVol, vol, uint64(cut))
		prefix[i] = phi
		if phi < bestPhi {
			best, bestPhi = i, phi
			bestVol, bestCut = vol, uint64(cut)
		}
	}
	return finishSweep(order, prefix, best, bestVol, bestCut)
}

// SweepZPair is one (value, rank) pair of the Theorem-1 Z array, using the
// paper's conventions: ranks are 1-based over the support and N+1 for
// vertices outside it.
type SweepZPair struct {
	Value int // +1, -1, or 0
	Rank  int
}

// BuildSweepZ constructs the (unsorted) Z array of Theorem 1 for a given
// sweep order: for each vertex v in rank order and each incident edge
// (v, w) in adjacency order, two consecutive pairs — (+1, rank v),
// (-1, rank w) when rank w > rank v (case a), else (0, rank v), (0, rank w)
// (case b). The §3.1 worked example is this construction on the Figure 1
// graph, and the tests compare against it verbatim.
func BuildSweepZ(g graph.Graph, order []uint32) []SweepZPair {
	N := len(order)
	rank := make(map[uint32]int, N)
	for i, v := range order {
		rank[v] = i + 1
	}
	var z []SweepZPair
	var adj []uint32
	for _, v := range order {
		rv := rank[v]
		ns := g.NeighborsInto(adj, v)
		adj = ns
		for _, w := range ns {
			rw, ok := rank[w]
			if !ok {
				rw = N + 1
			}
			if rw > rv {
				z = append(z, SweepZPair{Value: 1, Rank: rv}, SweepZPair{Value: -1, Rank: rw})
			} else {
				z = append(z, SweepZPair{Value: 0, Rank: rv}, SweepZPair{Value: 0, Rank: rw})
			}
		}
	}
	return z
}

// SweepCutParSort is the faithful Theorem 1 parallel sweep: it materializes
// Z (two pairs per directed edge of the support), integer-sorts it by rank
// with the parallel radix sort, prefix-sums the pair values, and reads the
// per-rank crossing count off the last pair of each rank group. Z is
// volume-sized: two pairs per support edge.
func SweepCutParSort(g graph.Graph, vec *sparse.Vector, procs int) SweepResult {
	procs = parallel.ResolveProcs(procs)
	order := sweepOrder(procs, g, vec)
	N := len(order)
	if N == 0 {
		return emptySweep()
	}
	rank := sparse.NewConcurrent(N)
	parallel.For(procs, N, 1024, func(i int) {
		rank.Set(order[i], float64(i+1))
	})
	// Offsets into Z: vertex at rank i contributes 2*d(v) pairs.
	offs := make([]uint64, N+1)
	zlen := 2 * graph.DegreeOffsets(procs, g, order, offs)
	// Pack each pair into a uint64: rank in the low 32 bits (the radix sort
	// key), value+1 in bits 32..33 riding along.
	z := make([]uint64, zlen)
	parallel.ForRange(procs, N, 16, func(lo, hi int) {
		var adj []uint32
		for i := lo; i < hi; i++ {
			v := order[i]
			rv := uint64(i + 1)
			o := 2 * offs[i]
			ns := g.NeighborsInto(adj, v)
			adj = ns
			for _, w := range ns {
				rw := uint64(rank.Get(w)) // 0 when absent
				if rw == 0 {
					rw = uint64(N + 1)
				}
				if rw > rv {
					z[o] = rv | (2 << 32)   // (+1, rv)
					z[o+1] = rw | (0 << 32) // (-1, rw)
				} else {
					z[o] = rv | (1 << 32)   // (0, rv)
					z[o+1] = rw | (1 << 32) // (0, rw)
				}
				o += 2
			}
		}
	})
	parallel.RadixSortUint64Scratch(procs, z, make([]uint64, zlen), parallel.KeyBitsFor(uint64(N+1)))
	// Prefix sums over the pair values.
	vals := make([]int64, zlen)
	parallel.For(procs, int(zlen), 4096, func(i int) {
		vals[i] = int64(z[i]>>32) - 1
	})
	sums := make([]int64, zlen)
	parallel.ScanInclusive(procs, vals, sums)
	// The crossing count of S_i is the running sum at the last pair with
	// rank i; ranks with no pairs (zero-degree vertices) inherit the
	// previous rank's count.
	lastIdx := parallel.FilterIndexInto(procs, int(zlen), make([]int, zlen), func(j int) bool {
		return j+1 == int(zlen) || z[j]&0xffffffff != z[j+1]&0xffffffff
	})
	cuts := make([]int64, N)
	for i := range cuts {
		cuts[i] = -1
	}
	for _, j := range lastIdx {
		r := int(z[j] & 0xffffffff) // 1-based
		if r <= N {
			cuts[r-1] = sums[j]
		}
	}
	var prev int64
	for i := range cuts {
		if cuts[i] < 0 {
			cuts[i] = prev
		}
		prev = cuts[i]
	}
	return sweepFromCuts(g, order, offs[1:], cuts, procs)
}

// sweepFromCuts computes prefix conductances from per-prefix volumes and
// crossing counts, selects the minimum, and assembles the result.
func sweepFromCuts(g graph.Graph, order []uint32, vols []uint64, cuts []int64, procs int) SweepResult {
	N := len(order)
	totalVol := g.TotalVolume()
	prefix := make([]float64, N)
	parallel.For(procs, N, 2048, func(i int) {
		prefix[i] = graph.ConductanceFrom(totalVol, vols[i], uint64(cuts[i]))
	})
	best, _ := parallel.MinIndexFunc(procs, N, func(i int) float64 { return prefix[i] })
	return finishSweep(order, prefix, best, vols[best], uint64(cuts[best]))
}

// finishSweep packages a sweep result given the chosen prefix index and its
// precomputed volume and cut.
func finishSweep(order []uint32, prefix []float64, best int, vol, cut uint64) SweepResult {
	return SweepResult{
		Cluster:           order[:best+1],
		Conductance:       prefix[best],
		Volume:            vol,
		Cut:               cut,
		Order:             order,
		PrefixConductance: prefix,
	}
}
