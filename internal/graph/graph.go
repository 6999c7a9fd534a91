// Package graph provides the undirected, unweighted graph substrate the
// paper's algorithms run on (§2 "Graph Notation"): a compressed sparse row
// (CSR) representation, a parallel builder that symmetrizes and removes self
// and duplicate edges (the paper's preprocessing), conductance/volume/
// boundary utilities, and text/binary file formats.
package graph

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"parcluster/internal/parallel"
)

// Graph is the read interface every traversal layer (ligra, core, service)
// runs against. Two representations implement it: the heap-resident *CSR
// below and the compressed, memory-mapped *CCSR (ccsr.go). Both expose the
// same edge-offset array and sorted adjacency lists, so edge-balanced
// chunking, the sparse/dense direction heuristic, and per-edge visit order
// are identical across representations — which is what makes kernel results
// bit-identical on either one.
//
// Neighbors may allocate on a decoding representation; hot loops call
// NeighborsInto / NeighborsTail with a reused scratch buffer instead (both
// are allocation-free aliases on *CSR). NeedsDecode reports whether the
// scratch is actually consumed.
type Graph interface {
	// NumVertices returns n.
	NumVertices() int
	// NumEdges returns the number of unique undirected edges m.
	NumEdges() uint64
	// TotalVolume returns 2m.
	TotalVolume() uint64
	// Degree returns d(v).
	Degree(v uint32) uint32
	// MaxDegree returns the largest degree (0 for an empty graph).
	MaxDegree() uint32
	// Offsets returns the edge-offset array (length n+1): vertex v's
	// adjacency occupies edge slots [Offsets()[v], Offsets()[v+1]). The
	// slice must not be modified.
	Offsets() []uint64
	// Neighbors returns v's sorted adjacency list. The result must not be
	// modified; it may alias internal storage or a fresh allocation.
	Neighbors(v uint32) []uint32
	// NeighborsInto returns v's sorted adjacency list, using buf as decode
	// scratch when the representation requires it. The returned slice is
	// valid until the next call that reuses buf; callers keep the loop
	// idiom ns := g.NeighborsInto(buf, v); buf = ns so scratch growth is
	// retained across iterations.
	NeighborsInto(buf []uint32, v uint32) []uint32
	// NeighborsTail returns the suffix of v's adjacency list covering at
	// least indices [j, d(v)), plus the index its first element corresponds
	// to (start <= j; 0 on a heap CSR). Edge-balanced chunk loops that
	// resume mid-list use it so a decoding representation only decodes the
	// sub-blocks from j onward instead of the whole list.
	NeighborsTail(buf []uint32, v uint32, j int) (ns []uint32, start int)
	// NeighborAt returns the i-th neighbor of v (0 <= i < d(v)). Random
	// walks use it to sample one neighbor without materializing the list.
	NeighborAt(v uint32, i uint32) uint32
	// HasEdge reports whether {u, v} is an edge.
	HasEdge(u, v uint32) bool
	// Volume returns vol(S), the sum of degrees over S.
	Volume(S []uint32) uint64
	// Boundary returns |∂(S)|, the edges with exactly one endpoint in S.
	Boundary(S []uint32) uint64
	// Conductance returns φ(S); see ConductanceFrom for the convention.
	Conductance(S []uint32) float64
}

// TailWalker is an optional capability for representations whose adjacency
// must be decoded on access: WalkTail streams the callback straight out of
// the decoder, so a dense traversal skips the materialize-then-rescan round
// trip of NeighborsTail. The heap CSR deliberately does not implement it —
// its adjacency is already a zero-copy slice, and the indirect per-edge call
// would only add cost there.
type TailWalker interface {
	// WalkTail calls fn(w) for each neighbor w of v at list indices
	// [j, j+limit) (clamped to d(v)), in adjacency order, and returns the
	// number of neighbors visited.
	WalkTail(v uint32, j, limit int, fn func(dst uint32)) int
}

// NeedsDecode reports whether Neighbors calls on g decode compressed
// adjacency (so hot loops should provision a reusable scratch buffer). The
// heap CSR aliases its storage and never decodes.
func NeedsDecode(g Graph) bool {
	_, heap := g.(*CSR)
	return !heap
}

// Format returns a short name for g's representation: "csr" for the heap
// CSR, "lgz" for the compressed memory-mapped form.
func Format(g Graph) string {
	if NeedsDecode(g) {
		return "lgz"
	}
	return "csr"
}

// CSR is an immutable undirected graph in compressed sparse row form. Each
// undirected edge {u, v} is stored twice (in u's and in v's adjacency list),
// lists are sorted and contain no self loops or duplicates.
type CSR struct {
	offsets []uint64 // len n+1; offsets[v]..offsets[v+1] index adj
	adj     []uint32
	m       uint64 // number of unique undirected edges; len(adj) == 2m
	maxDeg  uint32 // cached at build time; see MaxDegree
}

// NumVertices returns n.
func (g *CSR) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of unique undirected edges m.
func (g *CSR) NumEdges() uint64 { return g.m }

// TotalVolume returns 2m, the volume of the whole vertex set.
func (g *CSR) TotalVolume() uint64 { return 2 * g.m }

// Degree returns d(v), the number of edges incident on v.
func (g *CSR) Degree(v uint32) uint32 {
	return uint32(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns v's sorted adjacency list. The slice aliases the graph's
// storage and must not be modified.
func (g *CSR) Neighbors(v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborsInto implements Graph. The heap CSR aliases its storage, so buf
// is ignored and the call never allocates or copies.
func (g *CSR) NeighborsInto(buf []uint32, v uint32) []uint32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// NeighborsTail implements Graph: the full aliased list with start 0.
func (g *CSR) NeighborsTail(buf []uint32, v uint32, j int) ([]uint32, int) {
	return g.adj[g.offsets[v]:g.offsets[v+1]], 0
}

// NeighborAt returns the i-th neighbor of v in O(1).
func (g *CSR) NeighborAt(v uint32, i uint32) uint32 {
	return g.adj[g.offsets[v]+uint64(i)]
}

// HasEdge reports whether {u, v} is an edge, by binary search on the shorter
// of the two adjacency lists.
func (g *CSR) HasEdge(u, v uint32) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	_, found := slices.BinarySearch(ns, v)
	return found
}

// MaxDegree returns the largest degree in the graph (0 for an empty graph).
// The value is computed once, in parallel, when the graph is built.
func (g *CSR) MaxDegree() uint32 { return g.maxDeg }

// Offsets returns the CSR offset array (length n+1): vertex v's adjacency
// occupies adj indices [offsets[v], offsets[v+1]). The slice aliases the
// graph's storage and must not be modified. Dense (bitmap-frontier) edge
// traversals use it to edge-balance their scan over the whole graph without
// rebuilding a degree prefix sum per iteration.
func (g *CSR) Offsets() []uint64 { return g.offsets }

// maxDegreeOf computes the largest offsets[v+1]-offsets[v] gap with p
// workers — the build-time scan behind MaxDegree.
func maxDegreeOf(p int, offsets []uint64) uint32 {
	n := len(offsets) - 1
	if n <= 0 {
		return 0
	}
	const grain = 4096
	maxes := make([]uint32, (n+grain-1)/grain)
	parallel.ForRange(p, n, grain, func(lo, hi int) {
		var m uint32
		for v := lo; v < hi; v++ {
			if d := uint32(offsets[v+1] - offsets[v]); d > m {
				m = d
			}
		}
		maxes[lo/grain] = m
	})
	var m uint32
	for _, v := range maxes {
		if v > m {
			m = v
		}
	}
	return m
}

// Edge is one undirected edge for the builder. Orientation is irrelevant.
type Edge struct {
	U, V uint32
}

// FromEdges builds a CSR graph on n vertices from an arbitrary edge list
// using p workers. Self loops and duplicate edges (in either orientation)
// are removed and the graph is symmetrized, matching the paper's input
// preprocessing. If n <= 0 the vertex count is inferred as maxID+1.
func FromEdges(p, n int, edges []Edge) *CSR {
	p = parallel.ResolveProcs(p)
	if n <= 0 {
		var maxID atomic.Uint32
		parallel.ForRange(p, len(edges), 0, func(lo, hi int) {
			local := uint32(0)
			for _, e := range edges[lo:hi] {
				if e.U > local {
					local = e.U
				}
				if e.V > local {
					local = e.V
				}
			}
			for {
				cur := maxID.Load()
				if local <= cur || maxID.CompareAndSwap(cur, local) {
					break
				}
			}
		})
		if len(edges) == 0 {
			n = 0
		} else {
			n = int(maxID.Load()) + 1
		}
	}

	// Pass 1: count both directions of every non-self edge.
	deg := make([]uint32, n+1)
	parallel.ForRange(p, len(edges), 0, func(lo, hi int) {
		for _, e := range edges[lo:hi] {
			if e.U == e.V {
				continue
			}
			atomic.AddUint32(&deg[e.U], 1)
			atomic.AddUint32(&deg[e.V], 1)
		}
	})

	// Offsets by prefix sum; cursors are fetch-and-add scatter positions.
	offsets := make([]uint64, n+1)
	var total uint64
	for v := 0; v < n; v++ {
		offsets[v] = total
		total += uint64(deg[v])
	}
	offsets[n] = total
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	adj := make([]uint32, total)
	parallel.ForRange(p, len(edges), 0, func(lo, hi int) {
		for _, e := range edges[lo:hi] {
			if e.U == e.V {
				continue
			}
			iu := atomic.AddUint64(&cursor[e.U], 1) - 1
			adj[iu] = e.V
			iv := atomic.AddUint64(&cursor[e.V], 1) - 1
			adj[iv] = e.U
		}
	})

	// Pass 2: sort each adjacency list and count unique neighbors.
	newDeg := make([]uint64, n)
	parallel.For(p, n, 64, func(v int) {
		lo, hi := offsets[v], offsets[v+1]
		ns := adj[lo:hi]
		slices.Sort(ns)
		u := uint64(0)
		for i := range ns {
			if i == 0 || ns[i] != ns[i-1] {
				u++
			}
		}
		newDeg[v] = u
	})
	newOffsets := make([]uint64, n+1)
	var m2 uint64
	for v := 0; v < n; v++ {
		newOffsets[v] = m2
		m2 += newDeg[v]
	}
	newOffsets[n] = m2
	newAdj := make([]uint32, m2)
	parallel.For(p, n, 64, func(v int) {
		lo, hi := offsets[v], offsets[v+1]
		ns := adj[lo:hi]
		o := newOffsets[v]
		for i := range ns {
			if i == 0 || ns[i] != ns[i-1] {
				newAdj[o] = ns[i]
				o++
			}
		}
	})
	return &CSR{offsets: newOffsets, adj: newAdj, m: m2 / 2, maxDeg: maxDegreeOf(p, newOffsets)}
}

// FromAdjacency builds a CSR directly from pre-validated offsets and
// adjacency storage. The caller asserts the representation invariants
// (sorted, symmetric, loop- and duplicate-free); Validate can check them.
func FromAdjacency(offsets []uint64, adj []uint32) *CSR {
	return &CSR{offsets: offsets, adj: adj, m: uint64(len(adj)) / 2, maxDeg: maxDegreeOf(0, offsets)}
}

// Validate checks the CSR invariants: monotone offsets covering adj,
// in-range sorted duplicate-free neighbor lists, no self loops, and
// symmetry (u in N(v) iff v in N(u)). It is O(m log maxdeg).
func (g *CSR) Validate() error {
	n := g.NumVertices()
	if len(g.offsets) != n+1 {
		return errors.New("graph: offsets length mismatch")
	}
	if g.offsets[0] != 0 || g.offsets[n] != uint64(len(g.adj)) {
		return errors.New("graph: offsets do not cover adjacency array")
	}
	if uint64(len(g.adj)) != 2*g.m {
		return fmt.Errorf("graph: edge count m=%d inconsistent with len(adj)=%d", g.m, len(g.adj))
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		ns := g.Neighbors(uint32(v))
		for i, w := range ns {
			if int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbor %d", v, w)
			}
			if w == uint32(v) {
				return fmt.Errorf("graph: self loop at vertex %d", v)
			}
			if i > 0 && ns[i-1] >= w {
				return fmt.Errorf("graph: adjacency of vertex %d not strictly sorted", v)
			}
			if !g.HasEdge(w, uint32(v)) {
				return fmt.Errorf("graph: edge %d->%d not symmetric", v, w)
			}
		}
	}
	return nil
}

// Volume returns vol(S) = sum of degrees of the vertices in S. Duplicate
// entries in S are counted twice; callers pass sets.
func (g *CSR) Volume(S []uint32) uint64 { return volumeOf(g, S) }

// Boundary returns |∂(S)|, the number of edges with exactly one endpoint
// in S. Work is proportional to vol(S).
func (g *CSR) Boundary(S []uint32) uint64 { return boundaryOf(g, S) }

// Conductance returns φ(S) = |∂(S)| / min(vol(S), 2m − vol(S)). Following
// the convention used throughout the repository, φ is defined as 1 when the
// denominator is zero (S empty or S = V with no strict complement volume),
// so that degenerate cuts never win a sweep.
func (g *CSR) Conductance(S []uint32) float64 { return conductanceOf(g, S) }

// volumeOf, boundaryOf and conductanceOf are the representation-independent
// implementations behind the Graph interface's set utilities.
func volumeOf(g Graph, S []uint32) uint64 {
	var vol uint64
	for _, v := range S {
		vol += uint64(g.Degree(v))
	}
	return vol
}

// DegreeOffsets writes the exclusive prefix sums of the degrees of ids into
// offs[:len(ids)] and their total, vol(ids), into offs[len(ids)], which it
// also returns; offs must have room for len(ids)+1 entries. The sparse edge
// traversal cuts a frontier's edges into chunks along these offsets, and
// whoever needs the volume or the prefix volumes as well (the diffusion
// round, the sweep cut) computes them once with p workers and hands them on.
func DegreeOffsets(p int, g Graph, ids []uint32, offs []uint64) uint64 {
	offs[0] = 0
	tail := offs[1 : len(ids)+1]
	parallel.For(p, len(ids), 0, func(i int) { tail[i] = uint64(g.Degree(ids[i])) })
	return parallel.ScanInclusive(p, tail, tail)
}

func boundaryOf(g Graph, S []uint32) uint64 {
	in := make(map[uint32]bool, len(S))
	for _, v := range S {
		in[v] = true
	}
	var cut uint64
	var buf []uint32
	for _, v := range S {
		ns := g.NeighborsInto(buf, v)
		buf = ns
		for _, w := range ns {
			if !in[w] {
				cut++
			}
		}
	}
	return cut
}

func conductanceOf(g Graph, S []uint32) float64 {
	return ConductanceFrom(g.TotalVolume(), g.Volume(S), g.Boundary(S))
}

// ConductanceFrom computes φ from precomputed quantities: the total graph
// volume 2m, vol(S), and |∂(S)|.
func ConductanceFrom(totalVol, vol, cut uint64) float64 {
	denom := vol
	if rest := totalVol - vol; rest < denom {
		denom = rest
	}
	if denom == 0 {
		return 1
	}
	return float64(cut) / float64(denom)
}
