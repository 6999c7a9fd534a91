// Package ligra implements the subset of the Ligra shared-memory graph
// processing framework [41] that the paper's algorithms use (§2 "Ligra
// Framework"): the vertexSubset and the data-parallel vertexMap and edgeMap
// operators.
//
// A VertexSubset is a list of distinct vertex IDs, and edgeMap comes as two
// traversals. The sparse one (EdgeApplyIndexed) does work proportional to
// the subset and its incident edges only — the property that makes the
// implementations "local" in the paper's sense — at the cost of a degree
// prefix sum per frontier and per-chunk binary searches. The dense one (EdgePull)
// scans the whole CSR once, a much smaller constant per edge, which wins
// once the frontier's incident edges are a sizable fraction of the graph:
// it pulls a fixed operation — sum the neighbours' shares — with one writer
// per destination, no callback and no atomics, O(n + 2m). The crossover
// follows Ligra's direction heuristic: go dense when
// |F| + vol(F) > (n + 2m)/k with k = DenseThresholdFrac. Neither traversal
// returns an output frontier; the diffusion engine derives the next
// frontier from its accumulator's touched keys.
//
// Both are edge-balanced, so a single high-degree vertex (common in the
// power-law graphs the paper evaluates) cannot serialize an iteration by
// accident: the sparse traversal partitions the frontier's incident edges
// into equal-size chunks via a prefix sum over degrees; the dense one chunks
// the graph's edge array directly through the CSR offsets (snapped to
// vertex boundaries, the price of its single writer). lanes.go holds the
// 64-lane counterparts the batched diffusions run.
package ligra

import (
	"sort"
	"sync/atomic"

	"parcluster/internal/graph"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
)

// DenseThresholdFrac is the k in Ligra's direction heuristic: the dense
// traversal is selected when |F| + vol(F) > (n + 2m)/k. Ligra uses m/20 for
// out-degree frontiers; with our undirected 2m edge slots and the n term
// covering the per-vertex work, (n + 2m)/20 is the equivalent.
//
// The value was re-measured for the pull round (BenchmarkFrontierModeCrossover
// in internal/core; table in DESIGN.md §4): a whole engine round on the
// soc-LJ stand-in costs a flat ~2.5–3 ms as a pull and ~1.3 ms per 1/40 of
// 2m as a push over flat vectors with one worker, so they meet near
// vol(F) = 2m/16; with two workers the push's contended atomic adds move the
// meeting point below 2m/40. 20 sits between the two, so it stays.
const DenseThresholdFrac = 20

// OverDenseThreshold reports whether a frontier of the given size and
// volume crosses the dense-traversal threshold for g.
func OverDenseThreshold(g graph.Graph, size int, vol uint64) bool {
	return uint64(size)+vol > (uint64(g.NumVertices())+g.TotalVolume())/DenseThresholdFrac
}

// VertexSubset is a set of distinct vertex IDs (Ligra's vertexSubset), held
// as an ID list. The zero value is the empty subset, and subsets are
// immutable values.
type VertexSubset struct {
	ids  []uint32
	bits []uint64 // membership bitmap for EdgeApplyDense; nil until WithBitmap
}

// FromIDs wraps an existing ID slice without copying. The caller asserts the
// IDs are distinct.
func FromIDs(ids []uint32) VertexSubset { return VertexSubset{ids: ids} }

// Size returns the number of vertices in the subset.
func (s VertexSubset) Size() int { return len(s.ids) }

// IsEmpty reports whether the subset is empty.
func (s VertexSubset) IsEmpty() bool { return s.Size() == 0 }

// Has reports whether v is in the subset: O(1) against the bitmap when one
// is present, otherwise a linear scan of the ID list.
func (s VertexSubset) Has(v uint32) bool {
	if s.bits != nil {
		w := int(v >> 6)
		return w < len(s.bits) && s.bits[w]&(1<<(v&63)) != 0
	}
	for _, u := range s.ids {
		if u == v {
			return true
		}
	}
	return false
}

// IDs returns the subset's ID slice. The result must not be modified.
func (s VertexSubset) IDs() []uint32 { return s.ids }

// setBit sets bit v of bits with a CAS loop (several writers may share a
// word) and reports whether this call flipped it.
func setBit(bits []uint64, v uint32) bool {
	addr := &bits[v>>6]
	mask := uint64(1) << (v & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
	}
}

// WithBitmap returns the subset carrying a membership bitmap over [0, n),
// built with p workers. buf, if it has sufficient capacity, is cleared and
// reused as the bitmap storage; pass nil to allocate fresh.
//
// WithBitmap, Has's bitmap path and EdgeApplyDense (the push-direction dense
// traversal) have no caller in the engine since dense rounds pull; they stay
// only because benchmarks/probes.go times them as the ligra.dense.* metrics,
// and leave with those probes (ROADMAP item 4(c)).
func (s VertexSubset) WithBitmap(p, n int, buf []uint64) VertexSubset {
	if s.bits != nil {
		return s
	}
	words := (n + 63) / 64
	if cap(buf) >= words {
		buf = buf[:words]
		parallel.ForRange(p, words, 8192, func(lo, hi int) {
			clear(buf[lo:hi])
		})
	} else {
		buf = make([]uint64, words)
	}
	ids := s.ids
	parallel.For(p, len(ids), 2048, func(i int) {
		setBit(buf, ids[i])
	})
	s.bits = buf
	return s
}

// volumeGrain is the number of subset vertices per Volume work chunk.
const volumeGrain = 2048

// Volume returns the sum of the degrees of the subset's vertices in g,
// computed with p workers. This is the per-iteration edge bound the
// algorithms use to size their sparse tables and drive the sparse/dense
// decision. It runs every round, so its only allocation is one partial sum
// per chunk of volumeGrain vertices.
func (s VertexSubset) Volume(p int, g graph.Graph) uint64 {
	n := len(s.ids)
	if parallel.ResolveProcs(p) == 1 || n < volumeGrain {
		var vol uint64
		for _, v := range s.ids {
			vol += uint64(g.Degree(v))
		}
		return vol
	}
	vols := make([]uint64, (n+volumeGrain-1)/volumeGrain)
	parallel.ForRange(p, n, volumeGrain, func(lo, hi int) {
		var vol uint64
		for _, v := range s.ids[lo:hi] {
			vol += uint64(g.Degree(v))
		}
		vols[lo/volumeGrain] = vol
	})
	return parallel.Sum(1, vols)
}

// VertexMap applies fn to every vertex in the subset, in parallel
// (Ligra's vertexMap). fn may side-effect shared structures and must be
// safe for concurrent calls on distinct vertices.
func VertexMap(p int, s VertexSubset, fn func(v uint32)) {
	parallel.For(p, len(s.ids), 512, func(i int) { fn(s.ids[i]) })
}

// VertexMapIndexed is VertexMap with the vertex's position in the subset
// passed to fn, pairing with EdgeApplyIndexed for per-source state arrays.
func VertexMapIndexed(p int, s VertexSubset, fn func(i int, v uint32)) {
	parallel.For(p, len(s.ids), 512, func(i int) { fn(i, s.ids[i]) })
}

// VertexFilter returns the sub-subset for which pred holds, preserving
// order (Ligra's vertexFilter). pred must be pure or safe under concurrency.
func VertexFilter(p int, s VertexSubset, pred func(v uint32) bool) VertexSubset {
	return VertexSubset{ids: parallel.Filter(p, s.ids, pred)}
}

// VertexFilterInto is VertexFilter writing the kept IDs into buf's storage
// when its capacity suffices (see parallel.FilterInto). buf must not
// overlap s's ID storage; the diffusion engine satisfies this by filtering
// an accumulator's touched-key list into a separate recycled frontier
// buffer.
func VertexFilterInto(p int, s VertexSubset, buf []uint32, pred func(v uint32) bool) VertexSubset {
	return VertexSubset{ids: parallel.FilterInto(p, s.ids, buf, pred)}
}

// edgeMapGrain is the number of edges per edge-traversal work chunk.
const edgeMapGrain = 2048

// EdgeApplyIndexed applies fn(i, u, v) to every edge (u, v) with u in the
// subset (Ligra's edgeMap, sparse traversal), in parallel over edge-balanced
// chunks; i is u's position in the subset. The diffusion algorithms use the
// index to read per-source state (the pushed share, precomputed once per
// frontier vertex in a dense array) instead of paying a sparse-table lookup
// on every edge — the same source-value hoisting the paper's Ligra
// implementation gets for free from its dense vertex arrays.
//
// fn must be thread-safe: multiple frontier vertices may push to the same
// target concurrently (the paper resolves this with fetch-and-add). No
// output frontier is collected; callers derive the next frontier from their
// accumulator's touched keys. Work is O(|subset| + vol(subset)) and depth is
// polylogarithmic, matching Ligra's bounds.
func EdgeApplyIndexed(p int, g graph.Graph, s VertexSubset, fn func(srcIdx int, src, dst uint32)) {
	offs := make([]uint64, len(s.ids)+1)
	graph.DegreeOffsets(p, g, s.ids, offs)
	EdgeApplyIndexedScratch(p, g, s, offs, fn)
}

// EdgeApplyIndexedScratch is EdgeApplyIndexed for callers that already hold
// graph.DegreeOffsets of the subset (length s.Size()+1) — the diffusion
// round needs the frontier's volume before it traverses, the sweep cut needs
// the prefix volumes after — so the degrees are read once per round and a
// serving query's edge pass allocates nothing.
func EdgeApplyIndexedScratch(p int, g graph.Graph, s VertexSubset, offs []uint64, fn func(srcIdx int, src, dst uint32)) {
	nf := len(s.ids)
	total := offs[nf]
	if total == 0 {
		return
	}
	parallel.ForRange(p, int(total), edgeMapGrain, func(elo, ehi int) {
		buf, bp := graph.DecodeBuf(g)
		// First frontier index whose edge range contains elo.
		i := sort.Search(nf, func(i int) bool { return offs[i] > uint64(elo) }) - 1
		for e := elo; e < ehi; i++ {
			v := s.ids[i]
			// A chunk boundary can land mid-list; NeighborsTail resumes
			// decoding from the covering sub-block instead of the list head.
			j := e - int(offs[i])
			ns, start := g.NeighborsTail(buf, v, j)
			buf = ns
			for k := j - start; k < len(ns) && e < ehi; k++ {
				fn(i, v, ns[k])
				e++
			}
		}
		graph.ReleaseDecodeBuf(bp, buf)
	})
}

// EdgeApplyDense applies fn to every edge (u, v) with u in the subset,
// using the dense traversal: the graph's edge array is chunked directly
// through the CSR offsets (no per-call prefix sum) and each covered vertex
// pays one bitmap membership test. The subset must carry a bitmap
// (WithBitmap). Work is O(n + vol(F)) regardless of how the frontier's
// edges are distributed, and chunks are edge-balanced so high-degree
// vertices split across workers.
func EdgeApplyDense(p int, g graph.Graph, s VertexSubset, fn func(src, dst uint32)) {
	if s.bits == nil {
		panic("ligra: EdgeApplyDense requires a bitmap subset (call WithBitmap)")
	}
	offs := g.Offsets()
	n := g.NumVertices()
	total := int(g.TotalVolume())
	if total == 0 || s.IsEmpty() {
		return
	}
	if tw, ok := g.(graph.TailWalker); ok {
		// Decoding representation with a fused walker: stream fn straight
		// out of the decoder instead of materializing each tail into
		// scratch and rescanning it. Same chunking, same visit order.
		parallel.ForRange(p, total, edgeMapGrain, func(elo, ehi int) {
			v := sort.Search(n, func(i int) bool { return offs[i+1] > uint64(elo) })
			var src uint32
			visit := func(dst uint32) { fn(src, dst) }
			for e := elo; e < ehi && v < n; v++ {
				if offs[v+1] == offs[v] {
					continue
				}
				if !s.Has(uint32(v)) {
					e = int(offs[v+1]) // skip the whole adjacency in O(1)
					continue
				}
				src = uint32(v)
				e += tw.WalkTail(src, e-int(offs[v]), ehi-e, visit)
			}
		})
		return
	}
	parallel.ForRange(p, total, edgeMapGrain, func(elo, ehi int) {
		buf, bp := graph.DecodeBuf(g)
		// First vertex whose edge range extends past elo (skipping any run
		// of zero-degree vertices at the boundary).
		v := sort.Search(n, func(i int) bool { return offs[i+1] > uint64(elo) })
		for e := elo; e < ehi && v < n; v++ {
			if offs[v+1] == offs[v] {
				continue
			}
			if !s.Has(uint32(v)) {
				e = int(offs[v+1]) // skip the whole adjacency in O(1)
				continue
			}
			j := e - int(offs[v])
			ns, start := g.NeighborsTail(buf, uint32(v), j)
			buf = ns
			for k := j - start; k < len(ns) && e < ehi; k++ {
				fn(uint32(v), ns[k])
				e++
			}
		}
		graph.ReleaseDecodeBuf(bp, buf)
	})
}

// pullTouchBatch is how many created keys a pull chunk collects before
// listing them with one sparse.Dense.Touch.
const pullTouchBatch = 256

// EdgePull is the dense traversal in the pull direction, the diffusion
// engine's dense round. The graph is symmetric, so instead of every frontier
// source pushing its share along its edges into a shared accumulator, every
// destination v pulls: acc[v] += shares[u] for each u in N(v), in adjacency
// (ascending vertex) order, starting from the value acc already holds for v.
// shares is vertex-indexed and must be zero outside the frontier; a
// frontier vertex of positive degree must carry a positive share, because a
// destination acc did not hold before is created exactly when its pulled
// sum is nonzero. EdgePull is also the listing pass sparse.Dense.Defer asks
// for: keys a deferring vertex phase left pending come out listed.
//
// Ownership: the edge slots [0, 2m] — one past the end, so that trailing
// zero-degree vertices and an edgeless graph have an owner too — are cut
// into edgeMapGrain chunks, and a vertex belongs to the chunk holding its
// first slot. Each destination thus has one writer and is summed whole, in
// list order, by that writer: plain loads, one plain store, no atomics, and
// a result that does not depend on p or on the schedule. The price is that a
// hub's whole adjacency is one worker's job. Work is O(n + 2m) per call
// whatever the frontier, which is what DenseThresholdFrac weighs against
// the sparse push.
//
// A decoding representation has each list decoded into pooled scratch and
// then summed like a heap list. Streaming the sum through
// graph.TailWalker's per-edge callback instead measured slower (5.4 against
// 4.8 ns/edge on the packed soc-LJ stand-in), so there is one path.
func EdgePull(p int, g graph.Graph, shares []float64, acc *sparse.Dense) {
	offs := g.Offsets()
	n := g.NumVertices()
	parallel.ForRange(p, int(g.TotalVolume())+1, edgeMapGrain, func(elo, ehi int) {
		var created [pullTouchBatch]uint32
		nc := 0
		buf, bp := graph.DecodeBuf(g)
		v := sort.Search(n, func(i int) bool { return offs[i] >= uint64(elo) })
		for ; v < n && offs[v] < uint64(ehi); v++ {
			s := acc.Get(uint32(v))
			if offs[v+1] > offs[v] { // else nothing to pull: v is here only to be listed
				buf = g.NeighborsInto(buf, uint32(v))
				for _, u := range buf {
					s += shares[u]
				}
			}
			if acc.PutOwned(uint32(v), s) {
				created[nc] = uint32(v)
				if nc++; nc == len(created) {
					acc.Touch(created[:])
					nc = 0
				}
			}
		}
		acc.Touch(created[:nc])
		graph.ReleaseDecodeBuf(bp, buf)
	})
}
