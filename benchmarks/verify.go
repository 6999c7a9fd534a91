package main

import (
	"fmt"
	"math"

	"parcluster"
)

// The oracle is tolerance-based on purpose: with procs > 1 the diffusions
// accumulate floats by compare-and-swap in schedule order, so two correct
// runs need not agree bit for bit. What must hold is checked from outside
// the packages under test, against the graph itself.

const (
	condTol    = 1e-12 // reported conductance vs the graph's own
	massTol    = 1e-9  // a diffusion vector never sums past 1
	parCondTol = 1e-6  // sweep conductance, procs=P vs procs=1
	parSuppTol = 0.005 // support size, procs=P vs procs=1
)

// checkVector: every entry of a PR-Nibble or HK-PR vector is positive and
// the entries sum to at most one.
func checkVector(vec *parcluster.Vector) error {
	sum, bad := 0.0, 0
	vec.ForEach(func(_ uint32, x float64) {
		if !(x > 0) {
			bad++
		}
		sum += x
	})
	if bad > 0 {
		return fmt.Errorf("%d of %d vector entries are not positive", bad, vec.Len())
	}
	if sum > 1+massTol {
		return fmt.Errorf("vector sums to %.12g > 1", sum)
	}
	return nil
}

// checkMembers: members are unique vertices of the graph.
func checkMembers(n int, members []uint32) error {
	seen := make(map[uint32]struct{}, len(members))
	for _, v := range members {
		if int(v) >= n {
			return fmt.Errorf("member %d outside [0,%d)", v, n)
		}
		if _, dup := seen[v]; dup {
			return fmt.Errorf("member %d listed twice", v)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// checkSweep: the cluster a sweep returned has the conductance, volume and
// cut the graph computes for those members.
func checkSweep(g parcluster.GraphData, sw parcluster.SweepResult) error {
	if len(sw.Cluster) == 0 {
		return fmt.Errorf("empty cluster")
	}
	if err := checkMembers(g.NumVertices(), sw.Cluster); err != nil {
		return err
	}
	if vol, cut := g.Volume(sw.Cluster), g.Boundary(sw.Cluster); vol != sw.Volume || cut != sw.Cut {
		return fmt.Errorf("volume/cut %d/%d, graph says %d/%d", sw.Volume, sw.Cut, vol, cut)
	}
	if want := g.Conductance(sw.Cluster); math.Abs(want-sw.Conductance) > condTol {
		return fmt.Errorf("conductance %.15g, graph says %.15g", sw.Conductance, want)
	}
	return nil
}

// checkParallel: a procs=P run against the procs=1 run from the same seed.
func checkParallel(support1, supportP int, cond1, condP float64) error {
	if d := math.Abs(float64(supportP - support1)); d > parSuppTol*float64(support1) {
		return fmt.Errorf("support %d at procs=P vs %d at procs=1", supportP, support1)
	}
	if math.Abs(condP-cond1) > parCondTol {
		return fmt.Errorf("sweep conductance %.9g at procs=P vs %.9g at procs=1", condP, cond1)
	}
	return nil
}

// checkResult is what can be checked on every served answer without the
// graph: the member list is a well-formed prefix of a cluster of the stated
// size, and the conductance follows from the stated volume and cut.
func checkResult(n int, edges uint64, r *parcluster.ClusterResult) error {
	if r.Size < 1 {
		return fmt.Errorf("cluster of size %d", r.Size)
	}
	want := r.Size
	if want > maxMembers {
		want = maxMembers
	}
	if len(r.Members) != want || r.Truncated != (r.Size > maxMembers) {
		return fmt.Errorf("%d members listed for size %d (truncated=%v)", len(r.Members), r.Size, r.Truncated)
	}
	if err := checkMembers(n, r.Members); err != nil {
		return err
	}
	denom := r.Volume
	if rest := 2*edges - r.Volume; rest < denom {
		denom = rest
	}
	if denom == 0 || r.Cut > r.Volume {
		return fmt.Errorf("volume %d, cut %d out of range", r.Volume, r.Cut)
	}
	if want := float64(r.Cut) / float64(denom); math.Abs(want-r.Conductance) > condTol {
		return fmt.Errorf("conductance %.15g, cut/volume give %.15g", r.Conductance, want)
	}
	return nil
}

// libraryCluster answers a serve-* query in this process: the library on g
// at procs=1 with the request's parameters, checked against the graph.
func libraryCluster(g parcluster.GraphData, seed uint32) (parcluster.SweepResult, error) {
	vec, _ := parcluster.PRNibble(g, seed, parcluster.PRNibbleOptions{Alpha: alpha, Epsilon: localEps, Procs: 1})
	if err := checkVector(vec); err != nil {
		return parcluster.SweepResult{}, err
	}
	sw := parcluster.SweepCut(g, vec, parcluster.SweepOptions{Procs: 1})
	return sw, checkSweep(g, sw)
}

// checkAgainstLibrary: a served answer for seed equals the library's on g.
func checkAgainstLibrary(g parcluster.GraphData, seed uint32, r *parcluster.ClusterResult) error {
	sw, err := libraryCluster(g, seed)
	if err != nil {
		return fmt.Errorf("library answer for seed %d: %w", seed, err)
	}
	if r.Size != len(sw.Cluster) || r.Volume != sw.Volume || r.Cut != sw.Cut ||
		math.Abs(r.Conductance-sw.Conductance) > condTol {
		return fmt.Errorf("seed %d: served size/vol/cut/phi %d/%d/%d/%.15g, library %d/%d/%d/%.15g",
			seed, r.Size, r.Volume, r.Cut, r.Conductance, len(sw.Cluster), sw.Volume, sw.Cut, sw.Conductance)
	}
	for i, v := range r.Members {
		if sw.Cluster[i] != v {
			return fmt.Errorf("seed %d: member %d is %d, library says %d", seed, i, v, sw.Cluster[i])
		}
	}
	return nil
}
