// Package core implements the paper's local graph clustering algorithms,
// each in a sequential and a parallel version (§3):
//
//   - Nibble: the truncated lazy random walk of Spielman & Teng [44, 45]
//     (NibbleSeq, NibbleRun; §3.2, Figure 3, Theorem 2).
//   - PR-Nibble: the approximate-PageRank push algorithm of Andersen, Chung
//     & Lang [2], with both the original and the paper's optimized update
//     rule (PRNibbleSeq, PRNibbleRun; §3.3, Figures 5–6, Theorem 3), the
//     priority-queue sequential variant (PRNibbleSeqPQ), and the β-fraction
//     parallel variant.
//   - HK-PR: the deterministic heat kernel PageRank of Kloster & Gleich
//     [24] (HKPRSeq, HKPRRun; §3.4, Figure 7, Theorem 4).
//   - rand-HK-PR: the randomized heat kernel PageRank of Chung & Simpson
//     [10] (RandHKPRSeq, RandHKPRRun; §3.5, Theorem 5), plus the naive
//     contended aggregation the paper reports as a negative result
//     (RandHKPRParContended).
//   - Sweep cut: the rounding procedure that turns a diffusion vector into
//     a cluster: SweepCut, sequential at one worker and work-efficient
//     parallel at more, and the faithful Theorem-1 SweepCutParSort (§3.1).
//   - NCP: network community profiles built from many PR-Nibble sweeps
//     (§4, Figure 12).
//
// Each diffusion has one parallel entry point, XRun(g, seeds, params,
// RunConfig), and one sequential reference, XSeq(g, seeds, params); both take
// a seed set (footnote 5 of the paper) and return a sparse.Vector — the
// nonzero entries of the kernel's table, snapshotted once into two slices
// the caller owns — for a sweep cut. A worker count <= 0 uses all cores; 1
// runs the parallel algorithm's sequential schedule, the paper's T1.
package core

import (
	"fmt"

	"parcluster/internal/graph"
)

// Stats reports the work counters the paper's evaluation tables rely on.
type Stats struct {
	// Pushes counts vertex push/processing operations. For PR-Nibble this
	// is exactly the paper's Table 1 push count; for Nibble and HK-PR it
	// counts frontier-vertex processings; for rand-HK-PR it counts walks.
	Pushes int64 `json:"pushes"`
	// Iterations counts parallel rounds (or, for the sequential queue
	// algorithms, queue pops — which equals Pushes there).
	Iterations int `json:"iterations"`
	// EdgesTouched counts edge traversals, the quantity the work bounds
	// (Theorems 2–5) speak about.
	EdgesTouched int64 `json:"edges_touched"`
}

// String renders the counters in a compact single-line form for logs.
func (s Stats) String() string {
	return fmt.Sprintf("pushes=%d iterations=%d edges=%d", s.Pushes, s.Iterations, s.EdgesTouched)
}

// checkSeed panics with a descriptive error if the seed vertex is out of
// range; diffusing from a nonexistent vertex is always a programming error.
func checkSeed(g graph.Graph, seed uint32) {
	if int(seed) >= g.NumVertices() {
		panic(fmt.Sprintf("core: seed vertex %d out of range [0,%d)", seed, g.NumVertices()))
	}
}

// normalizeSeeds validates a seed set (footnote 5 of the paper: all
// algorithms extend to seed sets with multiple vertices), removing
// duplicates while preserving order. It panics on an empty set or an
// out-of-range vertex.
func normalizeSeeds(g graph.Graph, seeds []uint32) []uint32 {
	if len(seeds) == 0 {
		panic("core: empty seed set")
	}
	out := make([]uint32, 0, len(seeds))
	seen := make(map[uint32]bool, len(seeds))
	for _, s := range seeds {
		checkSeed(g, s)
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// growTo returns s extended (reallocating if needed) to length n; contents
// are unspecified. Used for per-iteration scratch arrays that should not
// reallocate every round.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	return s[:n]
}
