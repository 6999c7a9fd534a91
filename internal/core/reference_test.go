package core

// reference_test.go validates the sparse local algorithms against dense
// reference computations on small graphs:
//
//   - PR-Nibble (both rules) against exact personalized PageRank from dense
//     power iteration, using the Andersen-Chung-Lang approximation envelope
//     0 <= (pr - p)(v)/d(v) <= eps.
//   - HK-PR against the dense truncated heat kernel series.
//   - Nibble against a dense implementation of the identical
//     truncate-then-walk recurrence.
//   - rand-HK-PR's empirical distribution against the dense heat kernel in
//     total-variation distance.

import (
	"math"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

// densePageRank computes the exact lazy personalized PageRank vector
// pr(alpha, chi_seed) by power iteration: pr = alpha*s + (1-alpha)*pr*W
// with the lazy walk W = (I + D^-1 A)/2, iterated to convergence.
func densePageRank(g *graph.CSR, seed uint32, alpha float64) []float64 {
	n := g.NumVertices()
	cur := make([]float64, n)
	next := make([]float64, n)
	cur[seed] = 1
	for iter := 0; iter < 20000; iter++ {
		for v := range next {
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			mass := cur[v]
			if mass == 0 {
				continue
			}
			ns := g.Neighbors(uint32(v))
			next[v] += (1 - alpha) * mass / 2
			share := (1 - alpha) * mass / (2 * float64(len(ns)))
			for _, w := range ns {
				next[w] += share
			}
		}
		next[seed] += alpha
		delta := 0.0
		for v := range next {
			delta += math.Abs(next[v] - cur[v])
		}
		cur, next = next, cur
		if delta < 1e-14 {
			break
		}
	}
	return cur
}

func TestPRNibbleAgainstExactPageRank(t *testing.T) {
	g := gen.Caveman(6, 8)
	const alpha = 0.1
	const eps = 1e-5
	exact := densePageRank(g, 0, alpha)
	for _, rule := range []PushRule{OriginalRule, OptimizedRule} {
		for name, vec := range map[string]*sparse.Map{
			"seq": func() *sparse.Map { v, _ := PRNibbleSeq(g, []uint32{0}, alpha, eps, rule); return v }(),
			"par": func() *sparse.Map {
				v, _ := PRNibbleRun(g, []uint32{0}, alpha, eps, rule, 1, RunConfig{Procs: 4})
				return v
			}(),
		} {
			// ACL envelope: p underestimates pr, and the degree-normalized
			// gap is below eps everywhere (the residual bound).
			for v := 0; v < g.NumVertices(); v++ {
				p := vec.Get(uint32(v))
				gap := exact[v] - p
				d := float64(g.Degree(uint32(v)))
				if gap < -1e-9 {
					t.Fatalf("rule=%v %s: p[%d]=%v exceeds exact pagerank %v", rule, name, v, p, exact[v])
				}
				if gap > eps*d+1e-9 {
					t.Fatalf("rule=%v %s: gap at %d is %v, exceeds eps*d = %v", rule, name, v, gap, eps*d)
				}
			}
		}
	}
}

// denseHeatKernel computes h = e^-t sum_{k=0}^{K} t^k/k! P^k s densely with
// P = A D^-1 (mass at v spreads equally to its neighbors each step).
func denseHeatKernel(g *graph.CSR, seed uint32, t float64, terms int) []float64 {
	n := g.NumVertices()
	h := make([]float64, n)
	walk := make([]float64, n)
	next := make([]float64, n)
	walk[seed] = 1
	coeff := math.Exp(-t) // e^-t t^0/0!
	for k := 0; ; k++ {
		for v := 0; v < n; v++ {
			h[v] += coeff * walk[v]
		}
		if k == terms {
			break
		}
		for v := range next {
			next[v] = 0
		}
		for v := 0; v < n; v++ {
			if walk[v] == 0 {
				continue
			}
			ns := g.Neighbors(uint32(v))
			share := walk[v] / float64(len(ns))
			for _, w := range ns {
				next[w] += share
			}
		}
		walk, next = next, walk
		coeff *= t / float64(k+1)
	}
	return h
}

func TestHKPRAgainstDenseSeries(t *testing.T) {
	g := gen.Caveman(6, 8)
	const tt = 3.0
	const N = 25
	const eps = 1e-6
	exact := denseHeatKernel(g, 0, tt, 200)
	for name, vec := range map[string]*sparse.Map{
		"seq": func() *sparse.Map { v, _ := HKPRSeq(g, []uint32{0}, tt, N, eps); return v }(),
		"par": func() *sparse.Map { v, _ := HKPRRun(g, []uint32{0}, tt, N, eps, RunConfig{Procs: 4}); return v }(),
	} {
		l1 := 0.0
		for v := 0; v < g.NumVertices(); v++ {
			l1 += math.Abs(exact[v] - vec.Get(uint32(v)))
		}
		// Truncation error: Taylor tail beyond N plus sub-threshold
		// residuals. With N >> t and tiny eps the result must be very close.
		if l1 > 1e-3 {
			t.Fatalf("%s: l1 distance to dense heat kernel = %v", name, l1)
		}
	}
}

// denseNibble runs the identical truncate-then-walk recurrence with dense
// arrays: the sparse implementations must match it exactly (up to float
// accumulation order).
func denseNibble(g *graph.CSR, seed uint32, eps float64, T int) []float64 {
	n := g.NumVertices()
	p := make([]float64, n)
	next := make([]float64, n)
	p[seed] = 1
	frontier := []uint32{seed}
	for t := 1; t <= T; t++ {
		for v := range next {
			next[v] = 0
		}
		for _, v := range frontier {
			ns := g.Neighbors(v)
			next[v] += p[v] / 2
			share := p[v] / (2 * float64(len(ns)))
			for _, w := range ns {
				next[w] += share
			}
		}
		frontier = frontier[:0]
		for v := 0; v < n; v++ {
			if next[v] >= eps*float64(g.Degree(uint32(v))) && next[v] > 0 {
				frontier = append(frontier, uint32(v))
			}
		}
		if len(frontier) == 0 {
			return p
		}
		p, next = next, p
	}
	return p
}

func TestNibbleAgainstDenseReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.CSR
	}{
		{"caveman", gen.Caveman(8, 6)},
		{"cycle", gen.Cycle(64)},
		{"barbell", gen.Barbell(12)},
	} {
		want := denseNibble(tc.g, 0, 1e-4, 15)
		vec, _ := NibbleSeq(tc.g, []uint32{0}, 1e-4, 15)
		pv, _ := NibbleRun(tc.g, []uint32{0}, 1e-4, 15, RunConfig{Procs: 4})
		for v := 0; v < tc.g.NumVertices(); v++ {
			if math.Abs(vec.Get(uint32(v))-want[v]) > 1e-12 {
				t.Fatalf("%s: seq p[%d] = %v, dense reference %v", tc.name, v, vec.Get(uint32(v)), want[v])
			}
			if math.Abs(pv.Get(uint32(v))-want[v]) > 1e-9 {
				t.Fatalf("%s: par p[%d] = %v, dense reference %v", tc.name, v, pv.Get(uint32(v)), want[v])
			}
		}
	}
}

func TestRandHKPRMatchesDenseDistribution(t *testing.T) {
	// With many walks and K large enough to make truncation negligible, the
	// empirical endpoint distribution converges to the dense heat kernel;
	// check total-variation distance.
	g := gen.Caveman(4, 6)
	const tt = 2.0
	const K = 20
	exact := denseHeatKernel(g, 0, tt, 60)
	vec, _ := RandHKPRRun(g, []uint32{0}, tt, K, 400000, 99, RunConfig{})
	tv := 0.0
	for v := 0; v < g.NumVertices(); v++ {
		tv += math.Abs(exact[v] - vec.Get(uint32(v)))
	}
	tv /= 2
	if tv > 0.01 {
		t.Fatalf("total variation distance = %v, want < 0.01 at 400k walks", tv)
	}
}
