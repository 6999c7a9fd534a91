package core

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

// compressGraph round-trips g through the .lgz encoder and the in-memory
// open path, so the suite exercises the exact bytes a packed file holds.
func compressGraph(t testing.TB, g *graph.CSR) *graph.CCSR {
	t.Helper()
	var buf bytes.Buffer
	if err := graph.WriteCompressed(2, &buf, g); err != nil {
		t.Fatalf("WriteCompressed: %v", err)
	}
	c, err := graph.NewCompressed(buf.Bytes())
	if err != nil {
		t.Fatalf("NewCompressed: %v", err)
	}
	if err := c.Verify(2); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	return c
}

// TestPropertyCompressedMatchesHeap runs every push kernel over the heap
// CSR and over the compressed encoding of the same graph and requires
// equivalent results (requireEquivalentRuns): same Stats (so the same pushes
// in the same rounds), and wherever the accumulation order is fixed — one
// worker, or pull rounds — the same diffusion vectors to the last float bit
// and the same sweep cuts. The compressed CSR stores the heap CSR's
// edge-offset array verbatim, so chunk boundaries, visit order, and the
// direction heuristic are shared — any divergence there is a decoder bug,
// not a scheduling artifact.
func TestPropertyCompressedMatchesHeap(t *testing.T) {
	const prEps = 1e-6
	type kernel struct {
		name string
		run  func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats)
	}
	kernels := []kernel{
		{"prnibble", func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return PRNibbleRun(g, []uint32{seed}, 0.05, prEps, OptimizedRule, 1, cfg)
		}},
		{"nibble", func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return NibbleRun(g, []uint32{seed}, 1e-7, 12, cfg)
		}},
		{"hkpr", func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return HKPRRun(g, []uint32{seed}, 10, 12, 1e-6, cfg)
		}},
		{"randhk", func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return RandHKPRRun(g, []uint32{seed}, 5, 24, 400, 0xC0FFEE, cfg)
		}},
	}
	modes := []FrontierMode{FrontierAuto, FrontierSparse, FrontierDense}
	procsList := []int{1, 2, 8}

	for gname, heap := range propertyGraphs(t) {
		heap, comp := heap, compressGraph(t, heap)
		t.Run(gname, func(t *testing.T) {
			seed := firstSeed(t, heap)
			for _, k := range kernels {
				for _, mode := range modes {
					for _, procs := range procsList {
						label := fmt.Sprintf("%s/%s/%s/p%d", gname, k.name, mode, procs)
						cfg := RunConfig{Procs: procs, Frontier: mode}
						// rand-HK-PR aggregates by sorting, in a fixed order.
						exact := deterministicRun(cfg) || k.name == "randhk"
						want := runKernel(func() (*sparse.Vector, Stats) { return k.run(heap, seed, cfg) })
						got := runKernel(func() (*sparse.Vector, Stats) { return k.run(comp, seed, cfg) })
						requireEquivalentRuns(t, label, comp, exact, prEps, want, got)
						if want.vec.Len() > 0 {
							requireEquivalentSweeps(t, label, exact,
								SweepCut(heap, want.vec, procs),
								SweepCut(comp, got.vec, procs))
						}
					}
				}
			}
		})
	}
}

// TestCompressedEvolvingSetMatchesHeap covers the walk-driven kernel: the
// evolving-set process consumes the RNG stream one neighbor lookup at a
// time, so identical results prove NeighborAt visits the same targets in
// the same order on both representations.
func TestCompressedEvolvingSetMatchesHeap(t *testing.T) {
	for gname, heap := range propertyGraphs(t) {
		heap, comp := heap, compressGraph(t, heap)
		t.Run(gname, func(t *testing.T) {
			seed := firstSeed(t, heap)
			opts := EvolvingSetOptions{MaxIter: 200, Seed: 99}
			wantRes, wantSt := EvolvingSetSeq(heap, seed, opts)
			gotRes, gotSt := EvolvingSetSeq(comp, seed, opts)
			if wantSt != gotSt {
				t.Fatalf("stats %+v != %+v", wantSt, gotSt)
			}
			if wantRes.Conductance != gotRes.Conductance || wantRes.Steps != gotRes.Steps || len(wantRes.Set) != len(gotRes.Set) {
				t.Fatalf("results diverge: %+v vs %+v", wantRes, gotRes)
			}
			// Set order is unspecified (it is materialized from a map), so
			// compare as sets.
			want, got := slices.Clone(wantRes.Set), slices.Clone(gotRes.Set)
			slices.Sort(want)
			slices.Sort(got)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("member %d: %d != %d", i, want[i], got[i])
				}
			}
		})
	}
}

// TestCompressedBatchMatchesHeap covers the bit-parallel lane traversals
// (EdgeApplyLanes*): a multi-seed batch on the compressed graph must
// reproduce the heap batch per lane — bit for bit with one worker; with
// several, both lane traversals push with atomic adds in schedule order, so
// lanes are held to requireEquivalentRuns' tolerance contract in either
// frontier mode.
func TestCompressedBatchMatchesHeap(t *testing.T) {
	for gname, heap := range propertyGraphs(t) {
		heap, comp := heap, compressGraph(t, heap)
		t.Run(gname, func(t *testing.T) {
			seeds := pickSeeds(heap, 8)
			units := make([]BatchUnit, len(seeds))
			for i, s := range seeds {
				units[i] = BatchUnit{Seeds: []uint32{s}}
			}
			for _, mode := range []FrontierMode{FrontierSparse, FrontierDense} {
				for _, procs := range []int{1, 4} {
					cfg := BatchConfig{Procs: procs, Frontier: mode}
					wantVecs, wantSts := PRNibbleBatch(heap, units, 0.05, 1e-5, OptimizedRule, cfg)
					gotVecs, gotSts := PRNibbleBatch(comp, units, 0.05, 1e-5, OptimizedRule, cfg)
					for i := range units {
						label := fmt.Sprintf("%s/%s/p%d/lane%d", gname, mode, procs, i)
						requireEquivalentRuns(t, label, comp, procs == 1, 0,
							kernelRun{vec: wantVecs[i], st: wantSts[i]},
							kernelRun{vec: gotVecs[i], st: gotSts[i]})
					}
				}
			}
		})
	}
}

// pickSeeds returns up to k distinct non-isolated vertices spread across
// the universe.
func pickSeeds(g *graph.CSR, k int) []uint32 {
	var out []uint32
	n := g.NumVertices()
	for v := 0; v < n && len(out) < k; v += max(1, n/k) {
		if g.Degree(uint32(v)) > 0 {
			out = append(out, uint32(v))
		}
	}
	return out
}
