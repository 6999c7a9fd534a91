package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

// tiedSweepInput builds the degenerate case the sweep's total order has to
// survive: a ring with chords, so every connected vertex has degree 4; masses
// drawn from five values, so long runs of vertices share one p[v]/d(v); every
// 37th vertex isolated (score +Inf) with positive mass; and explicit zeros
// and negative entries sprinkled through the vector.
func tiedSweepInput(n int) (*graph.CSR, *sparse.Map) {
	isolated := func(v int) bool { return v%37 == 5 }
	var ring []uint32
	for v := 0; v < n; v++ {
		if !isolated(v) {
			ring = append(ring, uint32(v))
		}
	}
	var edges []graph.Edge
	for i, v := range ring {
		edges = append(edges,
			graph.Edge{U: v, V: ring[(i+1)%len(ring)]},
			graph.Edge{U: v, V: ring[(i+2)%len(ring)]})
	}
	g := graph.FromEdges(1, n, edges)
	vec := sparse.NewMap(n)
	for v := 0; v < n; v++ {
		switch {
		case v%11 == 3:
			vec.Set(uint32(v), 0)
		case v%13 == 7:
			vec.Set(uint32(v), -1e-3)
		case v%3 != 0:
			vec.Set(uint32(v), float64(1+v%5)*1e-4)
		}
	}
	return g, vec
}

// TestSweepOrderUnderTies pins the sweep's total order directly — score
// descending, vertex ID ascending, zero-degree vertices first, non-positive
// entries dropped — against an independent sort, and all three sweeps to it
// and to one another at every worker count: same Order, Cluster, Volume and
// Cut, bit-identical prefix conductances, and (at the size where that is
// affordable) the brute-force conductance of every prefix. The larger size
// is past the sequential cut-off of the parallel merge sort.
func TestSweepOrderUnderTies(t *testing.T) {
	for _, tc := range []struct {
		n     int
		brute bool
	}{{400, true}, {40_000, false}} {
		g, vec := tiedSweepInput(tc.n)
		type scored struct {
			score float64
			id    uint32
		}
		var want []scored
		zeroDeg := 0
		vec.ForEach(func(v uint32, mass float64) {
			if mass <= 0 {
				return
			}
			s := scored{math.Inf(1), v}
			if d := g.Degree(v); d > 0 {
				s.score = mass / float64(d)
			} else {
				zeroDeg++
			}
			want = append(want, s)
		})
		sort.Slice(want, func(i, j int) bool {
			if want[i].score != want[j].score {
				return want[i].score > want[j].score
			}
			return want[i].id < want[j].id
		})
		if zeroDeg == 0 || len(want) < tc.n/2 {
			t.Fatalf("n=%d: fixture has %d zero-degree entries in a support of %d", tc.n, zeroDeg, len(want))
		}
		ref := SweepCutSeq(g, vec)
		if len(ref.Order) != len(want) {
			t.Fatalf("n=%d: order has %d vertices, want %d", tc.n, len(ref.Order), len(want))
		}
		for i, w := range want {
			if ref.Order[i] != w.id {
				t.Fatalf("n=%d: order[%d] = %d, want %d (score %v)", tc.n, i, ref.Order[i], w.id, w.score)
			}
		}
		for i := 0; i < zeroDeg; i++ {
			if ref.PrefixConductance[i] != 1 {
				t.Fatalf("n=%d: prefix %d of zero-degree vertices has conductance %v, want 1", tc.n, i, ref.PrefixConductance[i])
			}
		}
		if len(ref.Cluster) <= zeroDeg || ref.Conductance >= 1 {
			t.Fatalf("n=%d: a zero-volume prefix won the sweep: %d vertices, conductance %v", tc.n, len(ref.Cluster), ref.Conductance)
		}
		if tc.brute {
			for i := range ref.Order {
				if phi := g.Conductance(ref.Order[:i+1]); phi != ref.PrefixConductance[i] {
					t.Fatalf("n=%d: prefix %d: sweep says %v, brute force %v", tc.n, i, ref.PrefixConductance[i], phi)
				}
			}
			if vol, cut := g.Volume(ref.Cluster), g.Boundary(ref.Cluster); vol != ref.Volume || cut != ref.Cut {
				t.Fatalf("n=%d: cluster vol/cut %d/%d, brute force %d/%d", tc.n, ref.Volume, ref.Cut, vol, cut)
			}
		}
		for _, procs := range []int{1, 2, 8} {
			label := fmt.Sprintf("n=%d/procs=%d", tc.n, procs)
			requireSweepsIdentical(t, label+"/par", ref, SweepCutPar(g, vec, procs))
			requireSweepsIdentical(t, label+"/parSort", ref, SweepCutParSort(g, vec, procs))
		}
	}
}
