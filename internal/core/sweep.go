package core

import (
	"math"
	"math/bits"
	"slices"
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
//     standard sequential sweep, O(N + vol(S_N)) work: one pass over the
//     sweep order that maintains the boundary incrementally and keeps only
//     a key-only set of the prefix (prefixSet). With more, a rank index
//     (rankIndex: a sparse.Index whose slots are the ranks) answers each
//     neighbour's rank in one probe, and per-rank crossing-edge deltas are
//     accumulated with fetch-and-add into a rank-indexed array and
//     prefix-summed — the same work and O(log vol) depth as Theorem 1's
//     crossing counts, with the integer sort replaced by direct bucket
//     accumulation.
//   - SweepCutParSort: the faithful Theorem 1 algorithm, building the
//     (±1, rank) pair array Z, integer-sorting it by rank, and recovering
//     per-rank crossing counts with prefix sums — including the worked
//     example of §3.1, which the tests reproduce exactly (ablation A2
//     compares it with SweepCut).
//
// Both take their sweep order from sweepOrder, which radix-sorts the
// (score, vertex) pairs on one goroutine at every worker count: O(N) work
// but O(N) depth, measured faster than the parallel merge sort it replaced
// up to a 60k-vertex support on two cores (DESIGN.md §4). Ties (equal
// p[v]/d(v)) go by ascending vertex ID, making the sweep order — and
// therefore the returned cluster — identical across implementations,
// worker counts and the order the vector lists its entries in. Every piece
// of a sweep's result and scratch is support-sized (volume-sized for the
// sort-based sweep's Z) and allocated per call; the returned Cluster, Order
// and PrefixConductance belong to the caller (DESIGN.md §6).

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
// is computed once, and what radixSortScored sorts is (score key, vertex)
// pairs, so no digit needs a lookup.
func sweepOrder(g graph.Graph, vec *sparse.Vector) []uint32 {
	ids, masses := vec.Entries()
	pairs := make([]scored, 0, len(ids))
	for i, v := range ids {
		if mass := masses[i]; mass > 0 {
			score := math.Inf(1)
			if d := g.Degree(v); d > 0 {
				score = mass / float64(d)
			}
			pairs = append(pairs, scored{key: ^math.Float64bits(score), id: v})
		}
	}
	pairs = radixSortScored(pairs)
	order := make([]uint32, len(pairs))
	for i, p := range pairs {
		order[i] = p.id
	}
	return order
}

// scored is a vertex with its sweep score p[v]/d(v): what sweepOrder sorts.
// The score is kept as the complement of its bits: scores are never
// negative or NaN, so ascending keys are descending scores and equal keys
// are equal scores.
type scored struct {
	key uint64
	id  uint32
}

// radixSortScored sorts pairs by key, then by ID, and returns them sorted
// (in pairs' memory or in a buffer of its own): a stable LSD radix sort over
// 8-bit digits, the ID's four bytes first, then the key's eight. One pass
// histograms all twelve (written out: a loop measured 20% slower), and a
// digit every pair shares takes no pass.
func radixSortScored(pairs []scored) []scored {
	var counts [12][256]uint32
	for _, p := range pairs {
		id, k := p.id, p.key
		counts[0][byte(id)]++
		counts[1][byte(id>>8)]++
		counts[2][byte(id>>16)]++
		counts[3][byte(id>>24)]++
		counts[4][byte(k)]++
		counts[5][byte(k>>8)]++
		counts[6][byte(k>>16)]++
		counts[7][byte(k>>24)]++
		counts[8][byte(k>>32)]++
		counts[9][byte(k>>40)]++
		counts[10][byte(k>>48)]++
		counts[11][byte(k>>56)]++
	}
	src, dst := pairs, make([]scored, len(pairs))
	for d := range counts {
		c := &counts[d]
		if slices.Contains(c[:], uint32(len(src))) {
			continue
		}
		digit := func(p scored) byte {
			if d < 4 {
				return byte(p.id >> (8 * d))
			}
			return byte(p.key >> (8 * (d - 4)))
		}
		var sum uint32
		for b, n := range c {
			c[b], sum = sum, sum+n
		}
		for _, p := range src {
			b := digit(p)
			dst[c[b]] = p
			c[b]++
		}
		src, dst = dst, src
	}
	return src
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
	order := sweepOrder(g, vec)
	N := len(order)
	if N == 0 {
		return emptySweep()
	}
	if procs == 1 {
		return sweepSerial(g, order)
	}
	rank := rankIndex(order)
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
			r, ok := rank.Find(d)
			rd := int(r)
			if !ok {
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

// rankIndex returns an index over the sweep order whose slots are the
// ranks: order[i] holds slot i, so Find reads a vertex's 0-based rank, or
// reports it outside the support, in one probe. The slots are claimed on
// one goroutine, in order; the edge passes that read them only Find.
func rankIndex(order []uint32) *sparse.Index {
	rank := sparse.NewIndex(len(order))
	for _, v := range order {
		rank.Slot(v)
	}
	return rank
}

// sweepSerial is SweepCut's one-worker pass over a nonempty sweep order.
// A neighbour is inside the prefix when it is in the prefix set, which a
// vertex joins once its own edges are counted.
func sweepSerial(g graph.Graph, order []uint32) SweepResult {
	inside := newPrefixSet(len(order))
	totalVol := g.TotalVolume()
	prefix := make([]float64, len(order))
	var vol uint64
	var cut int64
	best, bestPhi := 0, math.Inf(1)
	var bestVol, bestCut uint64
	adj, bp := graph.DecodeBuf(g)
	for i, v := range order {
		vol += uint64(g.Degree(v))
		ns := g.NeighborsInto(adj, v)
		adj = ns
		for _, w := range ns {
			if inside.has(w) {
				cut-- // edge became internal
			} else {
				cut++ // edge leaves the growing set
			}
		}
		inside.add(v)
		phi := graph.ConductanceFrom(totalVol, vol, uint64(cut))
		prefix[i] = phi
		if phi < bestPhi {
			best, bestPhi = i, phi
			bestVol, bestCut = vol, uint64(cut)
		}
	}
	graph.ReleaseDecodeBuf(bp, adj)
	return finishSweep(order, prefix, best, bestVol, bestCut)
}

// prefixSet is the one-worker sweep's set of the vertices its prefix holds:
// open addressing over vertex+1 (0 = free slot), Fibonacci home positions
// as in sparse.Index, linear probing. Its size is the power of two at or
// above twice the support, so it never passes 50% load.
type prefixSet struct {
	tab   []uint32
	mask  uint32
	shift uint32 // 32 - log2(len(tab))
}

func newPrefixSet(n int) prefixSet {
	k := uint32(bits.Len(uint(2*n - 1)))
	return prefixSet{tab: make([]uint32, 1<<k), mask: 1<<k - 1, shift: 32 - k}
}

// home returns v's home position: the top bits of a Fibonacci product.
func (s *prefixSet) home(v uint32) uint32 { return v * 0x9E3779B1 >> s.shift }

// slot returns v's slot if v is in the set, else the free slot ending its
// probe chain, where v would go.
func (s *prefixSet) slot(v uint32) *uint32 {
	i := s.home(v)
	for s.tab[i] != 0 && s.tab[i] != v+1 {
		i = (i + 1) & s.mask
	}
	return &s.tab[i]
}

func (s *prefixSet) has(v uint32) bool { return *s.slot(v) != 0 }

func (s *prefixSet) add(v uint32) { *s.slot(v) = v + 1 }

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
	adj, bp := graph.DecodeBuf(g)
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
	graph.ReleaseDecodeBuf(bp, adj)
	return z
}

// SweepCutParSort is the faithful Theorem 1 parallel sweep: it materializes
// Z (two pairs per directed edge of the support), integer-sorts it by rank
// with the parallel radix sort, prefix-sums the pair values, and reads the
// per-rank crossing count off the last pair of each rank group. Z is
// volume-sized: two pairs per support edge.
func SweepCutParSort(g graph.Graph, vec *sparse.Vector, procs int) SweepResult {
	procs = parallel.ResolveProcs(procs)
	order := sweepOrder(g, vec)
	N := len(order)
	if N == 0 {
		return emptySweep()
	}
	rank := rankIndex(order)
	// Offsets into Z: vertex at rank i contributes 2*d(v) pairs.
	offs := make([]uint64, N+1)
	zlen := 2 * graph.DegreeOffsets(procs, g, order, offs)
	// Pack each pair into a uint64: rank in the low 32 bits (the radix sort
	// key), value+1 in bits 32..33 riding along.
	z := make([]uint64, zlen)
	parallel.ForRange(procs, N, 16, func(lo, hi int) {
		adj, bp := graph.DecodeBuf(g)
		for i := lo; i < hi; i++ {
			v := order[i]
			rv := uint64(i + 1)
			o := 2 * offs[i]
			ns := g.NeighborsInto(adj, v)
			adj = ns
			for _, w := range ns {
				r, ok := rank.Find(w)
				rw := uint64(r) + 1
				if !ok {
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
		graph.ReleaseDecodeBuf(bp, adj)
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
