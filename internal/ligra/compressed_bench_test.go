package ligra

import (
	"bytes"
	"sync"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

// compressed_bench_test.go: BenchmarkCompressedEdgeMap measures the cost of
// streaming-decode traversal (.lgz) against the zero-copy heap CSR on both
// push traversals — the sparse ID-list one (EdgeApplyIndexed) and the dense
// bitmap-scan one (EdgeApplyDense) — over the soc-LiveJournal stand-in. The
// committed trajectory of the same quantities is the harness's
// graph.heap.scan_ns_per_edge / graph.lgz.scan_ns_per_edge,
// ligra.sparse.ns_per_edge, ligra.dense.ns_per_edge.* and
// graph.lgz_bytes_per_edge (BENCHMARK.json); DESIGN.md §12 discusses the
// numbers.

var (
	csrBenchOnce   sync.Once
	csrBenchHeap   *graph.CSR
	csrBenchComp   *graph.CCSR
	csrBenchErr    error
	csrBenchSeed   uint32
	csrBenchRatio  float64 // heap CSR bytes / compressed bytes
	csrBenchSparse VertexSubset
	csrBenchDense  VertexSubset
)

// csrBenchFixtures builds the stand-in, compresses it in memory, and
// prepares one frontier per regime: a ~2-hop neighborhood around the
// canonical seed for the sparse path, and the full vertex set for the dense
// path (the shape the direction heuristic switches to once a diffusion
// saturates).
func csrBenchFixtures(b *testing.B) {
	csrBenchOnce.Do(func() {
		csrBenchHeap, csrBenchErr = gen.StandIn(0, "soc-LJ", gen.Medium)
		if csrBenchErr != nil {
			return
		}
		var buf bytes.Buffer
		if csrBenchErr = graph.WriteCompressed(0, &buf, csrBenchHeap); csrBenchErr != nil {
			return
		}
		csrBenchComp, csrBenchErr = graph.NewCompressed(buf.Bytes())
		if csrBenchErr != nil {
			return
		}
		heapBytes := 8*uint64(csrBenchHeap.NumVertices()+1) + 4*csrBenchHeap.TotalVolume()
		csrBenchRatio = float64(heapBytes) / float64(buf.Len())

		csrBenchSeed, _ = csrBenchHeap.LargestComponent()
		seen := map[uint32]bool{csrBenchSeed: true}
		ids := []uint32{csrBenchSeed}
		for at := 0; at < len(ids) && len(ids) < 4096; at++ {
			for _, v := range csrBenchHeap.Neighbors(ids[at]) {
				if len(ids) >= 4096 {
					break
				}
				if !seen[v] {
					seen[v] = true
					ids = append(ids, v)
				}
			}
		}
		csrBenchSparse = FromIDs(ids)

		n := csrBenchHeap.NumVertices()
		all := make([]uint32, n)
		for v := range all {
			all[v] = uint32(v)
		}
		csrBenchDense = FromIDs(all).WithBitmap(0, n, nil)
	})
	if csrBenchErr != nil {
		b.Fatal(csrBenchErr)
	}
}

// applyEdges is one push round over s in the given regime.
func applyEdges(p int, g graph.Graph, s VertexSubset, dense bool, fn func(src, dst uint32)) {
	if dense {
		EdgeApplyDense(p, g, s, fn)
		return
	}
	EdgeApplyIndexed(p, g, s, func(_ int, src, dst uint32) { fn(src, dst) })
}

// edgeChecksum runs one single-proc round in the given regime and returns an
// order-sensitive fold over every (src, dst) visit. With p=1 the visit order
// is deterministic, so equal checksums mean the compressed decoder produced
// the same targets in the same order as the heap arrays.
func edgeChecksum(g graph.Graph, s VertexSubset, dense bool) uint64 {
	var sum uint64
	applyEdges(1, g, s, dense, func(src, dst uint32) {
		sum = sum*31 + uint64(src)<<32 + uint64(dst)
	})
	return sum
}

// BenchmarkCompressedEdgeMap is the tentpole measurement for DESIGN.md §12:
// per-round push cost on the compressed CSR versus the heap CSR, sparse and
// dense. Before timing starts the two representations are proved identical
// on both paths (same edge visit sequence). One benchmark op is one full
// round; bytes/op is the heap CSR's 4-byte-per-target footprint for that
// frontier's volume, so MB/s numbers are comparable across representations.
func BenchmarkCompressedEdgeMap(b *testing.B) {
	csrBenchFixtures(b)
	b.Logf("soc-LJ stand-in: n=%d m=%d, compression ratio vs heap CSR %.2fx",
		csrBenchHeap.NumVertices(), csrBenchHeap.NumEdges(), csrBenchRatio)

	for _, mode := range []struct {
		name  string
		dense bool
		s     VertexSubset
	}{
		{"sparse", false, csrBenchSparse},
		{"dense", true, csrBenchDense},
	} {
		if want, got := edgeChecksum(csrBenchHeap, mode.s, mode.dense), edgeChecksum(csrBenchComp, mode.s, mode.dense); want != got {
			b.Fatalf("%s: compressed round diverges: visit checksum %x, heap %x", mode.name, got, want)
		}

		vol := int64(mode.s.Volume(0, csrBenchHeap))
		n := csrBenchHeap.NumVertices()
		// The diffuse flavor is a push round's edge function over flat
		// vectors (scratch.Add(dst, sharesV[src])): per-vertex share array
		// read, atomic claim + CAS accumulate into the residual vector.
		// scratch is claimed once up front so every timed round pays the
		// steady-state cost.
		scratch := sparse.NewDense(n)
		sharesV := make([]float64, n)
		for v := 0; v < n; v++ {
			if d := csrBenchHeap.Degree(uint32(v)); d > 0 {
				sharesV[v] = 0.425 / float64(d)
			}
		}
		for _, repr := range []struct {
			name string
			g    graph.Graph
		}{
			{"heap", csrBenchHeap},
			{"lgz", csrBenchComp},
		} {
			// scan: the empty callback isolates pure traversal + decode
			// cost — the compressed CSR's worst case, a lower bound no
			// kernel ever runs at. diffuse: the per-edge work of an actual
			// push round, i.e. what a serving round pays per edge; the
			// acceptance ratio is judged on this flavor.
			b.Run(mode.name+"/scan/"+repr.name, func(b *testing.B) {
				b.SetBytes(4 * vol)
				for i := 0; i < b.N; i++ {
					applyEdges(0, repr.g, mode.s, mode.dense, func(src, dst uint32) {})
				}
			})
			b.Run(mode.name+"/diffuse/"+repr.name, func(b *testing.B) {
				b.SetBytes(4 * vol)
				diffuse := func(src, dst uint32) { scratch.Add(dst, sharesV[src]) }
				applyEdges(0, repr.g, mode.s, mode.dense, diffuse)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					applyEdges(0, repr.g, mode.s, mode.dense, diffuse)
				}
			})
		}
	}
}
