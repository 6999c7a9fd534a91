package graph

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// flatCopy copies g into a heap CSR through g's own Offsets and
// NeighborsInto, with the buf = ns idiom the kernels use, so the structural
// checks below hold for any representation, a snapshot's view included.
func flatCopy(g Graph) *CSR {
	offs := slices.Clone(g.Offsets())
	adj := make([]uint32, 0, offs[len(offs)-1])
	var buf []uint32
	for v := 0; v < g.NumVertices(); v++ {
		ns := g.NeighborsInto(buf, uint32(v))
		buf = ns
		adj = append(adj, ns...)
	}
	return FromAdjacency(offs, adj)
}

// binaryBytes returns g's WriteBinary image.
func binaryBytes(t testing.TB, g Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	return buf.Bytes()
}

// requireStructurallyEqual asserts that got, flattened through its own
// methods, is a valid CSR byte-for-byte the same as want: same universe,
// same offsets, same adjacency storage, and the same cached counts. This
// is the strong form of equality the delta overlay promises — not just the
// same edge set, the same canonical layout FromEdges would build.
func requireStructurallyEqual(t testing.TB, gotG, wantG Graph) {
	t.Helper()
	got, want := flatCopy(gotG), flatCopy(wantG)
	if err := got.Validate(); err != nil {
		t.Fatalf("flattened graph invalid: %v", err)
	}
	if gotG.NumVertices() != wantG.NumVertices() {
		t.Fatalf("vertices: got %d want %d", gotG.NumVertices(), wantG.NumVertices())
	}
	if gotG.NumEdges() != wantG.NumEdges() || gotG.TotalVolume() != wantG.TotalVolume() {
		t.Fatalf("edges: got %d (volume %d) want %d (volume %d)",
			gotG.NumEdges(), gotG.TotalVolume(), wantG.NumEdges(), wantG.TotalVolume())
	}
	if gotG.MaxDegree() != wantG.MaxDegree() {
		t.Fatalf("max degree: got %d want %d", gotG.MaxDegree(), wantG.MaxDegree())
	}
	for v := 0; v <= got.NumVertices(); v++ {
		if got.offsets[v] != want.offsets[v] {
			t.Fatalf("offsets[%d]: got %d want %d", v, got.offsets[v], want.offsets[v])
		}
	}
	for i := range got.adj {
		if got.adj[i] != want.adj[i] {
			t.Fatalf("adj[%d]: got %d want %d", i, got.adj[i], want.adj[i])
		}
	}
}

// edgeSet tracks the ground-truth undirected edge set alongside a Versioned
// under test, so rebuilds via FromEdges use the exact same membership.
type edgeSet struct {
	n     int
	edges map[[2]uint32]bool
}

func (s *edgeSet) apply(ins, del []Edge, vertices int) {
	if vertices > s.n {
		s.n = vertices
	}
	for _, e := range ins {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		s.edges[[2]uint32{u, v}] = true
	}
	for _, e := range del {
		u, v := e.U, e.V
		if u > v {
			u, v = v, u
		}
		delete(s.edges, [2]uint32{u, v})
	}
}

func (s *edgeSet) rebuild() *CSR {
	list := make([]Edge, 0, len(s.edges))
	for e := range s.edges {
		list = append(list, Edge{U: e[0], V: e[1]})
	}
	return FromEdges(2, s.n, list)
}

func randomBatch(rng *rand.Rand, n, size int) (ins, del []Edge) {
	for i := 0; i < size; i++ {
		u := uint32(rng.Intn(n))
		v := uint32(rng.Intn(n))
		if u == v {
			continue
		}
		if rng.Intn(4) == 0 {
			del = append(del, Edge{U: u, V: v})
		} else {
			ins = append(ins, Edge{U: u, V: v})
		}
	}
	return ins, del
}

// TestVersionedMatchesRebuild drives random insert/delete batches (with
// occasional compactions and universe growth) and checks after every step
// that the snapshot is structurally identical to a from-scratch FromEdges
// build of the same edge set.
func TestVersionedMatchesRebuild(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 48
			base := make([]Edge, 0, 3*n)
			for i := 0; i < 3*n; i++ {
				base = append(base, Edge{U: uint32(rng.Intn(n)), V: uint32(rng.Intn(n))})
			}
			truth := &edgeSet{n: n, edges: make(map[[2]uint32]bool)}
			truth.apply(base, nil, n)
			vg := NewVersioned(2, truth.rebuild())

			for step := 0; step < 40; step++ {
				vertices := 0
				if rng.Intn(8) == 0 {
					vertices = truth.n + 1 + rng.Intn(4) // grow the universe
				}
				ins, del := randomBatch(rng, max(truth.n, vertices), 12)
				truth.apply(ins, del, vertices)
				if _, err := vg.Apply(ins, del, vertices); err != nil {
					t.Fatalf("step %d: apply: %v", step, err)
				}
				if rng.Intn(5) == 0 {
					vg.Compact(2)
				}
				snap := vg.Snapshot()
				requireStructurallyEqual(t, snap.Graph(), truth.rebuild())
				snap.Release()
			}
			if p := vg.Pins(); p != 0 {
				t.Fatalf("pin leak: %d outstanding", p)
			}
		})
	}
}

// TestVersionedEpochSemantics checks that the epoch advances exactly once
// per effective batch, that compaction preserves it, and that snapshots are
// shared within an epoch but distinct across epochs.
func TestVersionedEpochSemantics(t *testing.T) {
	g := FromEdges(1, 4, []Edge{{0, 1}, {1, 2}})
	vg := NewVersioned(1, g)
	if vg.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d, want 0", vg.Epoch())
	}
	s0 := vg.Snapshot()
	if s0.Graph() != g {
		t.Fatal("epoch-0 snapshot should alias the base CSR")
	}
	if s0.Epoch() != 0 || s0.Pending() != 0 {
		t.Fatalf("epoch-0 snapshot: epoch=%d pending=%d", s0.Epoch(), s0.Pending())
	}

	st, err := vg.Apply([]Edge{{2, 3}}, nil, 0)
	if err != nil || st.Epoch != 1 {
		t.Fatalf("apply: epoch=%d err=%v, want 1 <nil>", st.Epoch, err)
	}
	// No-op batch: nothing changes, epoch must not advance.
	if st, _ := vg.Apply(nil, nil, 0); st.Epoch != 1 {
		t.Fatalf("no-op apply advanced epoch to %d", st.Epoch)
	}
	s1 := vg.Snapshot()
	s1b := vg.Snapshot()
	if s1 != s1b {
		t.Fatal("two snapshots of one epoch should share the view")
	}
	if s1.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s1.Pending())
	}
	if s1.Graph().NumEdges() != 3 {
		t.Fatalf("edges after insert = %d, want 3", s1.Graph().NumEdges())
	}
	// s0 is still alive and still sees the old world.
	if s0.Graph().NumEdges() != 2 {
		t.Fatalf("pinned old snapshot changed: edges = %d", s0.Graph().NumEdges())
	}

	folded, epoch := vg.Compact(1)
	if !folded || epoch != 1 {
		t.Fatalf("compact: folded=%v epoch=%d, want true 1", folded, epoch)
	}
	if folded, _ := vg.Compact(1); folded {
		t.Fatal("second compact with empty log should be a no-op")
	}
	s2 := vg.Snapshot()
	if s2.Epoch() != 1 || s2.Pending() != 0 {
		t.Fatalf("post-compact snapshot: epoch=%d pending=%d, want 1 0", s2.Epoch(), s2.Pending())
	}
	requireStructurallyEqual(t, s2.Graph(), s1.Graph())

	st = vg.Stats()
	if st.Edges != 1 || st.Batches != 1 || st.Compactions != 1 || st.Epoch != 1 {
		t.Fatalf("stats = %+v", st)
	}
	for _, s := range []*Snapshot{s0, s1, s1b, s2} {
		s.Release()
	}
	if p := vg.Pins(); p != 0 {
		t.Fatalf("pin leak: %d outstanding", p)
	}
}

// TestVersionedRejectsBadBatches checks atomic validation: self loops and
// out-of-range endpoints reject the whole batch without mutating anything.
func TestVersionedRejectsBadBatches(t *testing.T) {
	vg := NewVersioned(1, FromEdges(1, 4, []Edge{{0, 1}}))
	cases := []struct {
		name     string
		ins, del []Edge
		vertices int
	}{
		{name: "self loop insert", ins: []Edge{{2, 2}}},
		{name: "self loop delete", del: []Edge{{1, 1}}},
		{name: "out of range insert", ins: []Edge{{0, 4}}},
		{name: "out of range delete", del: []Edge{{0, 99}}},
		{name: "valid then invalid", ins: []Edge{{0, 2}, {0, 7}}},
		{name: "universe too large", ins: []Edge{{0, 2}}, vertices: maxVertexID + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := vg.Apply(tc.ins, tc.del, tc.vertices); err == nil {
				t.Fatal("want error, got nil")
			}
			if vg.Epoch() != 0 || vg.Pending() != 0 {
				t.Fatalf("rejected batch mutated state: epoch=%d pending=%d", vg.Epoch(), vg.Pending())
			}
		})
	}
	// Universe growth makes previously out-of-range endpoints valid.
	if _, err := vg.Apply([]Edge{{0, 5}}, nil, 6); err != nil {
		t.Fatalf("apply with growth: %v", err)
	}
	s := vg.Snapshot()
	defer s.Release()
	if s.Graph().NumVertices() != 6 {
		t.Fatalf("universe = %d, want 6", s.Graph().NumVertices())
	}
}

// TestVersionedInsertDeleteFold checks last-write-wins folding within and
// across batches: insert+delete of the same pair cancels, delete+insert
// restores, duplicate inserts collapse.
func TestVersionedInsertDeleteFold(t *testing.T) {
	base := FromEdges(1, 4, []Edge{{0, 1}, {1, 2}})
	vg := NewVersioned(1, base)
	// Same batch: insert {0,3} then delete it (log order), delete {0,1} then
	// re-insert via a later batch.
	if _, err := vg.Apply([]Edge{{0, 3}, {3, 0}}, nil, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := vg.Apply(nil, []Edge{{3, 0}, {0, 1}}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := vg.Apply([]Edge{{1, 0}}, nil, 0); err != nil {
		t.Fatal(err)
	}
	s := vg.Snapshot()
	defer s.Release()
	want := FromEdges(1, 4, []Edge{{0, 1}, {1, 2}})
	requireStructurallyEqual(t, s.Graph(), want)
	// Deleting an absent edge is a no-op, not an error.
	if _, err := vg.Apply(nil, []Edge{{0, 3}}, 0); err != nil {
		t.Fatalf("delete of absent edge: %v", err)
	}
}

// TestSnapshotOverRelease checks the workspace-style double-release panic.
func TestSnapshotOverRelease(t *testing.T) {
	vg := NewVersioned(1, FromEdges(1, 2, []Edge{{0, 1}}))
	s := vg.Snapshot()
	s.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release should panic")
		}
	}()
	s.Release()
}

// TestCommitHookSeesCanonicalBatch checks the durable-commit contract: the
// hook runs once per accepted batch with canonicalized pairs, the resolved
// universe, and the epoch the batch will produce — and is skipped entirely
// for rejected and no-op batches.
func TestCommitHookSeesCanonicalBatch(t *testing.T) {
	vg := NewVersioned(1, FromEdges(1, 4, []Edge{{0, 1}}))
	type call struct {
		ins, del []Edge
		vertices int
		epoch    uint64
	}
	var calls []call
	vg.SetCommit(func(ins, del []Edge, vertices int, epoch uint64) error {
		calls = append(calls, call{ins, del, vertices, epoch})
		return nil
	})
	// {3, 1} must arrive canonicalized as {1, 3}; universe grows to 6.
	if _, err := vg.Apply([]Edge{{3, 1}}, []Edge{{1, 0}}, 6); err != nil {
		t.Fatal(err)
	}
	// Rejected batch: hook must not fire.
	if _, err := vg.Apply([]Edge{{0, 0}}, nil, 0); err == nil {
		t.Fatal("self loop accepted")
	}
	// No-op batch: hook must not fire.
	if _, err := vg.Apply(nil, nil, 0); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Fatalf("hook fired %d times, want 1", len(calls))
	}
	c := calls[0]
	if len(c.ins) != 1 || c.ins[0] != (Edge{1, 3}) {
		t.Fatalf("hook ins = %v, want canonicalized [{1 3}]", c.ins)
	}
	if len(c.del) != 1 || c.del[0] != (Edge{0, 1}) {
		t.Fatalf("hook del = %v, want canonicalized [{0 1}]", c.del)
	}
	if c.vertices != 6 || c.epoch != 1 {
		t.Fatalf("hook vertices=%d epoch=%d, want 6, 1", c.vertices, c.epoch)
	}
}

// TestCommitHookFailureRejectsBatch checks that a failing hook vetoes the
// batch — epoch unchanged, nothing logged, error wrapped in ErrCommit —
// and that the same batch succeeds once the hook recovers.
func TestCommitHookFailureRejectsBatch(t *testing.T) {
	vg := NewVersioned(1, FromEdges(1, 4, []Edge{{0, 1}}))
	boom := errors.New("disk on fire")
	fail := true
	vg.SetCommit(func(_, _ []Edge, _ int, _ uint64) error {
		if fail {
			return boom
		}
		return nil
	})
	st, err := vg.Apply([]Edge{{1, 2}}, nil, 0)
	if !errors.Is(err, ErrCommit) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want ErrCommit wrapping the hook error", err)
	}
	if st.Epoch != 0 || st.Pending != 0 {
		t.Fatalf("failed commit mutated state: %+v", st)
	}
	fail = false
	st, err = vg.Apply([]Edge{{1, 2}}, nil, 0)
	if err != nil || st.Epoch != 1 || st.Pending != 1 {
		t.Fatalf("retry after hook recovery: %+v, %v", st, err)
	}
}

// TestNewVersionedAt checks the WAL-recovery constructor: the overlay
// starts at the checkpoint epoch and replayed batches continue from there.
func TestNewVersionedAt(t *testing.T) {
	vg := NewVersionedAt(1, FromEdges(1, 4, []Edge{{0, 1}}), 7)
	if got := vg.Epoch(); got != 7 {
		t.Fatalf("starting epoch = %d, want 7", got)
	}
	st, err := vg.Apply([]Edge{{1, 2}}, nil, 0)
	if err != nil || st.Epoch != 8 {
		t.Fatalf("apply on recovered overlay: %+v, %v", st, err)
	}
	s := vg.Snapshot()
	defer s.Release()
	if s.Epoch() != 8 {
		t.Fatalf("snapshot epoch = %d, want 8", s.Epoch())
	}
}
