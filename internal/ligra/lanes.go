package ligra

// lanes.go adds the lane-mask edge traversals behind the bit-parallel
// batched diffusions (internal/core/batch.go). A batch of up to 64
// diffusions keeps one uint64 "active lanes" mask per vertex; the union
// frontier is the set of vertices with a nonzero mask, and one traversal of
// it advances every lane at once — the callback receives the source's mask
// and fans the update out to each set bit. Both traversals visit frontier
// sources in increasing vertex-ID order within a chunk — the order in which
// the unbatched dense round (EdgePull) sums a destination's sources — which
// is what lets a one-worker batched round reproduce that round's
// floating-point addition order bit for bit.

import (
	"sort"

	"parcluster/internal/graph"
	"parcluster/internal/parallel"
)

// EdgeApplyLanesDense applies fn(u, v, mask[u]) to every edge (u, v) with
// mask[u] != 0, using the dense traversal: the graph's edge array is chunked
// directly through the CSR offsets and each covered vertex pays one mask
// load, with non-frontier adjacencies skipped in O(1). mask must have
// length g.NumVertices() and must not be written during the call. Work is
// O(n + vol(F)) over the union frontier F, edge-balanced like
// EdgeApplyDense.
func EdgeApplyLanesDense(p int, g graph.Graph, mask []uint64, fn func(src, dst uint32, lanes uint64)) {
	offs := g.Offsets()
	n := g.NumVertices()
	total := int(g.TotalVolume())
	if total == 0 {
		return
	}
	parallel.ForRange(p, total, edgeMapGrain, func(elo, ehi int) {
		buf, bp := acquireDecodeBuf(g)
		// First vertex whose edge range extends past elo (skipping any run
		// of zero-degree vertices at the boundary).
		v := sort.Search(n, func(i int) bool { return offs[i+1] > uint64(elo) })
		for e := elo; e < ehi && v < n; v++ {
			if offs[v+1] == offs[v] {
				continue
			}
			lanes := mask[v]
			if lanes == 0 {
				e = int(offs[v+1]) // skip the whole adjacency in O(1)
				continue
			}
			j := e - int(offs[v])
			ns, start := g.NeighborsTail(buf, uint32(v), j)
			buf = ns
			for k := j - start; k < len(ns) && e < ehi; k++ {
				fn(uint32(v), ns[k], lanes)
				e++
			}
		}
		releaseDecodeBuf(bp, buf)
	})
}

// EdgeApplyLanesSparse applies fn(u, v, mask[u]) to every edge (u, v) with
// u in ids, edge-balanced through a degree prefix sum like
// EdgeApplyIndexedScratch. ids is the union frontier and must be sorted by
// vertex ID (so chunk-internal source order matches the dense traversal);
// every listed vertex must have a nonzero mask. degs and offs must each be
// nil (allocate fresh) or have length >= len(ids); the batch workspace
// passes recycled graph-sized slices here.
func EdgeApplyLanesSparse(p int, g graph.Graph, ids []uint32, mask []uint64, degs, offs []uint64, fn func(src, dst uint32, lanes uint64)) {
	nf := len(ids)
	if nf == 0 {
		return
	}
	if degs == nil {
		degs = make([]uint64, nf)
	} else {
		degs = degs[:nf]
	}
	parallel.For(p, nf, 0, func(i int) { degs[i] = uint64(g.Degree(ids[i])) })
	if offs == nil {
		offs = make([]uint64, nf)
	} else {
		offs = offs[:nf]
	}
	total := parallel.ScanExclusive(p, degs, offs)
	if total == 0 {
		return
	}
	parallel.ForRange(p, int(total), edgeMapGrain, func(elo, ehi int) {
		buf, bp := acquireDecodeBuf(g)
		// First frontier index whose edge range contains elo.
		i := sort.Search(nf, func(i int) bool { return offs[i] > uint64(elo) }) - 1
		for e := elo; e < ehi; i++ {
			v := ids[i]
			lanes := mask[v]
			j := e - int(offs[i])
			ns, start := g.NeighborsTail(buf, v, j)
			buf = ns
			for k := j - start; k < len(ns) && e < ehi; k++ {
				fn(v, ns[k], lanes)
				e++
			}
		}
		releaseDecodeBuf(bp, buf)
	})
}
