package core

// mutation_equiv_test.go is the overlay-vs-rebuild kernel equivalence
// battery: a graph reached through graph.Versioned delta batches and read
// through its snapshot view must be indistinguishable to the kernels — at the bit
// level — from the same edge set built from scratch with graph.FromEdges.
// The graph package already proves the two structurally equal; this
// suite proves the property the service actually relies on: ingestion
// changes what a diffusion computes only through the edge set, never
// through representation artifacts (ordering, padding, stale maxDeg), for
// every push kernel, frontier mode, and worker count.

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"parcluster/internal/graph"
	"parcluster/internal/rng"
	"parcluster/internal/sparse"
)

// edgeKey packs an undirected edge u<v into one comparable word.
func edgeKey(u, v uint32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// mutationTracker drives a Versioned overlay and, in parallel, maintains
// the ground-truth edge set the overlay is supposed to represent.
type mutationTracker struct {
	vg    *graph.Versioned
	truth map[uint64]bool
	n     int
}

func newMutationTracker(base *graph.CSR) *mutationTracker {
	m := &mutationTracker{vg: graph.NewVersioned(2, base), truth: make(map[uint64]bool), n: base.NumVertices()}
	for u := 0; u < base.NumVertices(); u++ {
		for _, v := range base.Neighbors(uint32(u)) {
			m.truth[edgeKey(uint32(u), v)] = true
		}
	}
	return m
}

// step applies one random batch: a dozen inserts/deletes, occasionally
// growing the universe by a few vertices.
func (m *mutationTracker) step(t *testing.T, r *rng.RNG) {
	t.Helper()
	grow := 0
	if r.Uint64()%5 == 0 {
		grow = m.n + 2 + int(r.Uint64()%3)
	}
	span := m.n
	if grow > span {
		span = grow
	}
	var ins, del []graph.Edge
	for k := 0; k < 12; k++ {
		u := uint32(r.Uint64() % uint64(span))
		v := uint32(r.Uint64() % uint64(span))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v}
		if r.Uint64()%3 == 0 {
			del = append(del, e)
		} else {
			ins = append(ins, e)
		}
	}
	if _, err := m.vg.Apply(ins, del, grow); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if grow > m.n {
		m.n = grow
	}
	// Fold in declaration order, exactly as Apply promises to.
	for _, e := range ins {
		m.truth[edgeKey(e.U, e.V)] = true
	}
	for _, e := range del {
		delete(m.truth, edgeKey(e.U, e.V))
	}
}

// requireFlatEqual flattens g through its own Offsets and NeighborsInto
// (the buf = ns idiom), requires the copy to pass Validate, and requires g's
// counts and WriteBinary image to equal want's byte for byte — the same
// check for a snapshot's view as for a flat CSR.
func requireFlatEqual(t *testing.T, label string, g graph.Graph, want *graph.CSR) {
	t.Helper()
	offs := slices.Clone(g.Offsets())
	adj := make([]uint32, 0, offs[len(offs)-1])
	var buf []uint32
	for v := 0; v < g.NumVertices(); v++ {
		ns := g.NeighborsInto(buf, uint32(v))
		buf = ns
		adj = append(adj, ns...)
	}
	if err := graph.FromAdjacency(offs, adj).Validate(); err != nil {
		t.Fatalf("%s: snapshot invalid: %v", label, err)
	}
	if g.NumEdges() != want.NumEdges() || g.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: m=%d maxdeg=%d, want %d %d", label, g.NumEdges(), g.MaxDegree(), want.NumEdges(), want.MaxDegree())
	}
	var got, exp bytes.Buffer
	if err := graph.WriteBinary(&got, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteBinary(&exp, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), exp.Bytes()) {
		t.Fatalf("%s: snapshot differs from the rebuild byte for byte", label)
	}
}

// rebuild materializes the ground-truth edge set from scratch.
func (m *mutationTracker) rebuild() *graph.CSR {
	edges := make([]graph.Edge, 0, len(m.truth))
	for k := range m.truth {
		edges = append(edges, graph.Edge{U: uint32(k >> 32), V: uint32(k)})
	}
	return graph.FromEdges(1, m.n, edges)
}

// TestPropertyOverlayMatchesRebuild runs each push kernel over the
// overlay's snapshot view and over an independent from-scratch rebuild of the same
// edge set, and requires bit-identical diffusion vectors, stats, and sweep
// cuts across frontier modes and worker counts — after plain batches and
// after compaction alike.
func TestPropertyOverlayMatchesRebuild(t *testing.T) {
	type kernel struct {
		name string
		run  func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats)
	}
	kernels := []kernel{
		{"prnibble", func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return PRNibbleRun(g, []uint32{seed}, 0.05, 1e-6, OptimizedRule, 1, cfg)
		}},
		{"nibble", func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return NibbleRun(g, []uint32{seed}, 1e-7, 12, cfg)
		}},
		{"hkpr", func(g graph.Graph, seed uint32, cfg RunConfig) (*sparse.Vector, Stats) {
			return HKPRRun(g, []uint32{seed}, 10, 12, 1e-6, cfg)
		}},
	}
	modes := []FrontierMode{FrontierAuto, FrontierSparse, FrontierDense}
	procsList := []int{1, 2, 8}

	for _, graphSeed := range []uint64{3, 17} {
		t.Run(fmt.Sprintf("seed=%d", graphSeed), func(t *testing.T) {
			m := newMutationTracker(erdosRenyi(96, 6, graphSeed))
			r := rng.New(graphSeed * 977)
			for checkpoint := 0; checkpoint < 3; checkpoint++ {
				for s := 0; s < 6; s++ {
					m.step(t, &r)
				}
				if checkpoint == 1 {
					// The mid-run fold: kernels must not be able to tell a
					// flattened base from a view over it either.
					m.vg.Compact(4)
				}
				snap := m.vg.Snapshot()
				overlay := snap.Graph()
				rebuilt := m.rebuild()
				requireFlatEqual(t, fmt.Sprintf("checkpoint %d", checkpoint), overlay, rebuilt)
				seed := firstSeed(t, rebuilt)
				for _, k := range kernels {
					for _, mode := range modes {
						for _, procs := range procsList {
							label := fmt.Sprintf("cp%d/%s/%s/p%d", checkpoint, k.name, mode, procs)
							cfg := RunConfig{Procs: procs, Frontier: mode}
							want, wantSt := k.run(rebuilt, seed, cfg)
							got, gotSt := k.run(overlay, seed, cfg)
							if wantSt != gotSt {
								t.Fatalf("%s: stats %+v != %+v", label, wantSt, gotSt)
							}
							requireMapsIdentical(t, label, want, got)
							if want.Len() > 0 {
								requireSweepsIdentical(t, label,
									SweepCut(rebuilt, want, procs),
									SweepCut(overlay, got, procs))
							}
						}
					}
				}
				snap.Release()
			}
			if pins := m.vg.Pins(); pins != 0 {
				t.Fatalf("leaked %d snapshot pins", pins)
			}
		})
	}
}
