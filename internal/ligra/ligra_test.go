package ligra

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

func procsUnderTest() []int { return []int{1, 3, runtime.GOMAXPROCS(0)} }

func TestVertexSubsetBasics(t *testing.T) {
	var empty VertexSubset
	if !empty.IsEmpty() || empty.Size() != 0 {
		t.Fatal("zero value should be empty")
	}
	s := FromIDs([]uint32{3, 1, 4})
	if s.Size() != 3 || s.IsEmpty() {
		t.Fatal("FromIDs size")
	}
	if got := s.IDs(); len(got) != 3 || got[0] != 3 {
		t.Fatal("IDs mismatch")
	}
}

func TestVolume(t *testing.T) {
	g := gen.Figure1()
	s := FromIDs([]uint32{0, 1, 2, 3}) // degrees 2, 2, 3, 4
	for _, p := range procsUnderTest() {
		if vol := s.Volume(p, g); vol != 11 {
			t.Fatalf("p=%d: Volume = %d, want 11", p, vol)
		}
	}
	var empty VertexSubset
	if empty.Volume(2, g) != 0 {
		t.Fatal("empty volume")
	}
}

func TestVolumeLarge(t *testing.T) {
	g := gen.Grid3D(0, 20) // 8000 vertices, degree 6
	ids := make([]uint32, 5000)
	for i := range ids {
		ids[i] = uint32(i)
	}
	s := FromIDs(ids)
	for _, p := range procsUnderTest() {
		if vol := s.Volume(p, g); vol != 30000 {
			t.Fatalf("p=%d: Volume = %d, want 30000", p, vol)
		}
	}
	// The engine calls Volume every round: at procs > 1 it may allocate per
	// chunk of the frontier and per worker (one partial sum per chunk, the
	// closure, the goroutines), never per frontier vertex.
	const p = 4
	chunks := (len(ids) + volumeGrain - 1) / volumeGrain
	allocs := testing.AllocsPerRun(20, func() { s.Volume(p, g) })
	if budget := float64(chunks + 3*p + 8); allocs > budget {
		t.Fatalf("Volume of %d vertices allocates %.0f objects/op at p=%d, budget %.0f", len(ids), allocs, p, budget)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < 20; i++ {
		s.Volume(p, g)
	}
	runtime.ReadMemStats(&ms1)
	if perCall := (ms1.TotalAlloc - ms0.TotalAlloc) / 20; perCall >= uint64(8*len(ids)) {
		t.Fatalf("Volume of %d vertices allocates %d bytes/op at p=%d: a frontier-sized temporary is back", len(ids), perCall, p)
	}
}

func TestVertexMapVisitsEachOnce(t *testing.T) {
	for _, p := range procsUnderTest() {
		ids := make([]uint32, 10000)
		for i := range ids {
			ids[i] = uint32(i)
		}
		counts := make([]int32, len(ids))
		VertexMap(p, FromIDs(ids), func(v uint32) { atomic.AddInt32(&counts[v], 1) })
		for v, c := range counts {
			if c != 1 {
				t.Fatalf("p=%d: vertex %d visited %d times", p, v, c)
			}
		}
	}
}

func TestVertexFilter(t *testing.T) {
	ids := make([]uint32, 1000)
	for i := range ids {
		ids[i] = uint32(i)
	}
	for _, p := range procsUnderTest() {
		out := VertexFilter(p, FromIDs(ids), func(v uint32) bool { return v%5 == 0 })
		if out.Size() != 200 {
			t.Fatalf("p=%d: filtered size = %d", p, out.Size())
		}
		for k, v := range out.IDs() {
			if v != uint32(5*k) {
				t.Fatalf("p=%d: order not preserved", p)
			}
		}
	}
}

// The TestEdgeMap* cases hold the sparse edgeMap traversal, EdgeApplyIndexed,
// to ground truth; TestEdgeApplyDenseMatchesSparse then holds the push-dense
// traversal to the sparse one on the same kinds of input.

func TestEdgeMapVisitsFrontierEdgesExactly(t *testing.T) {
	g := gen.Figure1()
	// Frontier {C, D}: C's edges to A,B,D and D's edges to C,E,F,G.
	for _, p := range procsUnderTest() {
		var mu sync.Mutex
		visited := map[[2]uint32]int{}
		frontier := FromIDs([]uint32{2, 3})
		EdgeApplyIndexed(p, g, frontier, func(i int, s, d uint32) {
			if frontier.IDs()[i] != s {
				t.Errorf("p=%d: source %d reported at index %d", p, s, i)
			}
			mu.Lock()
			visited[[2]uint32{s, d}]++
			mu.Unlock()
		})
		want := [][2]uint32{{2, 0}, {2, 1}, {2, 3}, {3, 2}, {3, 4}, {3, 5}, {3, 6}}
		if len(visited) != len(want) {
			t.Fatalf("p=%d: visited %d distinct edges, want %d: %v", p, len(visited), len(want), visited)
		}
		for _, e := range want {
			if visited[e] != 1 {
				t.Fatalf("p=%d: edge %v visited %d times", p, e, visited[e])
			}
		}
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	g := gen.Figure1()
	EdgeApplyIndexed(4, g, VertexSubset{}, func(_ int, s, d uint32) {
		t.Errorf("empty frontier visited edge (%d, %d)", s, d)
	})
}

func TestEdgeMapZeroDegreeFrontier(t *testing.T) {
	// Vertices 2..4 are isolated; a frontier of isolated vertices has no
	// incident edges and must visit nothing.
	gi := graph.FromEdges(1, 5, []graph.Edge{{U: 0, V: 1}})
	EdgeApplyIndexed(4, gi, FromIDs([]uint32{3}), func(_ int, s, d uint32) {
		t.Errorf("isolated frontier visited edge (%d, %d)", s, d)
	})
	// Mixed frontier: only the non-isolated vertex contributes.
	var visits atomic.Int64
	EdgeApplyIndexed(4, gi, FromIDs([]uint32{2, 0, 4}), func(i int, s, d uint32) {
		if i != 1 || s != 0 || d != 1 {
			t.Errorf("mixed frontier visited (%d, %d) from index %d, want (0, 1) from index 1", s, d, i)
		}
		visits.Add(1)
	})
	if visits.Load() != 1 {
		t.Fatalf("mixed frontier made %d visits, want 1", visits.Load())
	}
}

func TestEdgeMapEdgeBalancedOnSkewedDegrees(t *testing.T) {
	// A star: one hub with huge degree plus leaves. The chunking must split
	// the hub's edges across workers; verify correctness (every leaf
	// touched exactly once).
	const leaves = 50000
	g := gen.Star(leaves + 1)
	for _, p := range procsUnderTest() {
		counts := make([]int32, leaves+1)
		EdgeApplyIndexed(p, g, FromIDs([]uint32{0}), func(_ int, s, d uint32) {
			atomic.AddInt32(&counts[d], 1)
		})
		if counts[0] != 0 {
			t.Fatalf("p=%d: hub pushed to itself %d times", p, counts[0])
		}
		for v := 1; v <= leaves; v++ {
			if counts[v] != 1 {
				t.Fatalf("p=%d: leaf %d touched %d times", p, v, counts[v])
			}
		}
	}
}

// --- membership bitmap / push-dense traversal ---

func TestBitmapRoundTrip(t *testing.T) {
	const n = 1000
	ids := []uint32{3, 64, 65, 127, 128, 999}
	for _, p := range procsUnderTest() {
		s := FromIDs(ids).WithBitmap(p, n, nil)
		if s.Size() != len(ids) || len(s.IDs()) != len(ids) {
			t.Fatalf("p=%d: WithBitmap lost the ID list or its size", p)
		}
		for _, v := range ids {
			if !s.Has(v) {
				t.Fatalf("p=%d: Has(%d) = false", p, v)
			}
		}
		if s.Has(4) || s.Has(998) || s.Has(5000) {
			t.Fatalf("p=%d: Has reports absent vertices", p)
		}
	}
}

func TestWithBitmapReusesBuffer(t *testing.T) {
	const n = 500
	buf := make([]uint64, (n+63)/64)
	buf[0] = ^uint64(0) // stale bits must be cleared
	s := FromIDs([]uint32{200}).WithBitmap(2, n, buf)
	if &s.bits[0] != &buf[0] {
		t.Fatal("sufficient buffer was not reused")
	}
	if s.Has(0) || s.Has(63) || !s.Has(200) {
		t.Fatal("stale buffer bits survived the rebuild")
	}
}

func TestEdgeApplyDenseMatchesSparse(t *testing.T) {
	// The dense traversal must visit exactly the frontier's edges, once
	// each, on either representation: on a skewed graph (star: chunk
	// boundaries split the hub), on a graph whose frontier holds isolated
	// vertices, and for the empty and the everything frontiers.
	gapped := graph.FromEdges(1, 40, []graph.Edge{{U: 1, V: 3}, {U: 3, V: 5}, {U: 5, V: 21}, {U: 22, V: 23}})
	graphs := map[string]*graph.CSR{
		"figure1": gen.Figure1(),
		"star":    gen.Star(5000),
		"grid":    gen.Grid3D(0, 8),
		"gapped":  gapped, // even vertices but 22 are isolated
	}
	for name, heap := range graphs {
		var buf bytes.Buffer
		if err := graph.WriteCompressed(1, &buf, heap); err != nil {
			t.Fatal(err)
		}
		packed, err := graph.NewCompressed(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		n := heap.NumVertices()
		frontiers := map[string][]uint32{"none": nil}
		for v := 0; v < n; v++ {
			frontiers["all"] = append(frontiers["all"], uint32(v))
			if v%2 == 0 {
				frontiers["even"] = append(frontiers["even"], uint32(v))
			}
		}
		for rname, g := range map[string]graph.Graph{"heap": heap, "lgz": packed} {
			for fname, ids := range frontiers {
				frontier := FromIDs(ids)
				for _, p := range procsUnderTest() {
					label := fmt.Sprintf("%s/%s/%s p=%d", name, rname, fname, p)
					wantCounts := make([]int64, n)
					var wantEdges int64
					EdgeApplyIndexed(p, g, frontier, func(_ int, _, dst uint32) {
						atomic.AddInt64(&wantCounts[dst], 1)
						atomic.AddInt64(&wantEdges, 1)
					})
					if vol := frontier.Volume(p, g); uint64(wantEdges) != vol {
						t.Fatalf("%s: sparse traversal visited %d edges, frontier volume is %d", label, wantEdges, vol)
					}
					gotCounts := make([]int64, n)
					fb := frontier.WithBitmap(p, n, nil)
					EdgeApplyDense(p, g, fb, func(src, dst uint32) {
						if !fb.Has(src) {
							t.Errorf("%s: dense scan pushed from non-member %d", label, src)
						}
						atomic.AddInt64(&gotCounts[dst], 1)
					})
					for v := range wantCounts {
						if gotCounts[v] != wantCounts[v] {
							t.Fatalf("%s: vertex %d received %d pushes, want %d",
								label, v, gotCounts[v], wantCounts[v])
						}
					}
				}
			}
		}
	}
}

func TestOverDenseThreshold(t *testing.T) {
	g := gen.Clique(64) // n=64, 2m = 64*63
	// Tiny frontier: below (n+2m)/20.
	if OverDenseThreshold(g, 1, 63) {
		t.Fatal("single vertex crossed the dense threshold")
	}
	// Half the clique: vol = 32*63 >> (64+4032)/20.
	if !OverDenseThreshold(g, 32, 32*63) {
		t.Fatal("half the clique did not cross the dense threshold")
	}
}

// TestEdgePullMatchesPushOrder checks the pull traversal against the sum it
// stands for, on graphs that stress its vertex-snapped ownership (a star:
// the hub's list spans several chunks; a graph with zero-degree vertices in
// the middle and at the end; an edgeless graph) and on both graph
// representations: every destination ends at its carried value plus its
// frontier neighbours' shares added in ascending order, bit for bit at every
// worker count; exactly the destinations with a carried entry or a frontier
// neighbour are listed, once; and an entry a deferring vertex phase left
// pending comes out listed even where there is nothing to pull.
func TestEdgePullMatchesPushOrder(t *testing.T) {
	gapped := func() *graph.CSR { // isolated: 0, every 5th, and 90..99 (99 is left pending)
		var edges []graph.Edge
		for v := uint32(1); v < 90; v++ {
			if w := v + 3; v%5 != 0 && w%5 != 0 && w < 90 {
				edges = append(edges, graph.Edge{U: v, V: w})
			}
		}
		return graph.FromEdges(1, 100, edges)
	}
	for name, heap := range map[string]*graph.CSR{
		"star":     gen.Star(3 * edgeMapGrain),
		"grid":     gen.Grid3D(0, 9),
		"gapped":   gapped(),
		"edgeless": graph.FromEdges(1, 70, nil),
	} {
		var buf bytes.Buffer
		if err := graph.WriteCompressed(1, &buf, heap); err != nil {
			t.Fatal(err)
		}
		packed, err := graph.NewCompressed(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		n := heap.NumVertices()
		// Frontier: every third vertex. Carried entries: every seventh
		// (listed before the round) and every eleventh (left pending by a
		// deferring vertex phase) — whatever their degree.
		shares := make([]float64, n)
		for v := 0; v < n; v += 3 {
			shares[v] = 1 / float64(v+3)
		}
		want := make(map[uint32]float64)
		for v := 0; v < n; v++ {
			s, hit := 0.0, false
			if v%7 == 0 {
				s, hit = s+0.5, true
			}
			if v%11 == 0 {
				s, hit = s-0.25, true
			}
			for _, u := range heap.Neighbors(uint32(v)) {
				if shares[u] != 0 {
					s, hit = s+shares[u], true
				}
			}
			if hit {
				want[uint32(v)] = s
			}
		}
		for rname, g := range map[string]graph.Graph{"heap": heap, "lgz": packed} {
			for _, p := range procsUnderTest() {
				acc := sparse.NewDense(n)
				for v := 0; v < n; v += 7 {
					acc.AddOwned(uint32(v), 0.5)
				}
				acc.Defer(true)
				for v := 0; v < n; v += 11 {
					acc.AddOwned(uint32(v), -0.25)
				}
				EdgePull(p, g, shares, acc)
				acc.Defer(false)
				keys := acc.Keys(p)
				if len(keys) != len(want) {
					t.Fatalf("%s/%s p=%d: %d destinations listed, want %d", name, rname, p, len(keys), len(want))
				}
				seen := make(map[uint32]bool, len(keys))
				for _, k := range keys {
					w, ok := want[k]
					if !ok || seen[k] {
						t.Fatalf("%s/%s p=%d: destination %d listed (again=%t), wanted=%t", name, rname, p, k, seen[k], ok)
					}
					seen[k] = true
					if got := acc.Get(k); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("%s/%s p=%d: acc[%d] = %v, want %v", name, rname, p, k, got, w)
					}
				}
			}
		}
	}
}
