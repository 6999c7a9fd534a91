package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// requireViewMatches checks every method of g against want, the FromEdges
// build of the same edge set: the structure byte for byte, NeighborsTail
// at every j, NeighborAt at every i, HasEdge on every present pair and on
// absent ones, the set utilities, and the WriteBinary image.
func requireViewMatches(t testing.TB, g Graph, want *CSR, rng *rand.Rand) {
	t.Helper()
	requireStructurallyEqual(t, g, want)
	n := want.NumVertices()
	var buf []uint32
	for v := uint32(0); int(v) < n; v++ {
		wl := want.Neighbors(v)
		if g.Degree(v) != uint32(len(wl)) {
			t.Fatalf("Degree(%d) = %d, want %d", v, g.Degree(v), len(wl))
		}
		if got := g.Neighbors(v); !slices.Equal(got, wl) {
			t.Fatalf("Neighbors(%d) = %v, want %v", v, got, wl)
		}
		for j := range wl {
			ns, start := g.NeighborsTail(buf, v, j)
			buf = ns
			if start > j || start+len(ns) != len(wl) || !slices.Equal(ns[j-start:], wl[j:]) {
				t.Fatalf("NeighborsTail(%d, %d) = %v from %d, want suffix of %v", v, j, ns, start, wl)
			}
			if w := g.NeighborAt(v, uint32(j)); w != wl[j] {
				t.Fatalf("NeighborAt(%d, %d) = %d, want %d", v, j, w, wl[j])
			}
			if !g.HasEdge(v, wl[j]) {
				t.Fatalf("HasEdge(%d, %d) = false on a present edge", v, wl[j])
			}
		}
		for k := 0; k < 4; k++ {
			w := uint32(rng.Intn(n))
			if got, exp := g.HasEdge(v, w), want.HasEdge(v, w); got != exp {
				t.Fatalf("HasEdge(%d, %d) = %v, want %v", v, w, got, exp)
			}
		}
	}
	for k := 0; k < 4 && n > 0; k++ {
		S := make([]uint32, 0, 8)
		for _, v := range rng.Perm(n)[:min(n, 1+rng.Intn(8))] {
			S = append(S, uint32(v))
		}
		if g.Volume(S) != want.Volume(S) || g.Boundary(S) != want.Boundary(S) || g.Conductance(S) != want.Conductance(S) {
			t.Fatalf("set utilities of %v: got vol %d cut %d phi %v, want %d %d %v", S,
				g.Volume(S), g.Boundary(S), g.Conductance(S), want.Volume(S), want.Boundary(S), want.Conductance(S))
		}
	}
	if !bytes.Equal(binaryBytes(t, g), binaryBytes(t, want)) {
		t.Fatal("WriteBinary image differs from the flat CSR's")
	}
	if _, ok := g.(*view); ok && !NeedsDecode(g) {
		t.Fatal("NeedsDecode(view) = false")
	}
}

// pinnedEpoch is a snapshot held across later steps with the WriteBinary
// image it had when it was taken.
type pinnedEpoch struct {
	s   *Snapshot
	img []byte
}

// requireHeldUnchanged checks that views pinned at earlier epochs still
// read exactly as when they were taken.
func requireHeldUnchanged(t testing.TB, held []pinnedEpoch) {
	t.Helper()
	for _, h := range held {
		if !bytes.Equal(binaryBytes(t, h.s.Graph()), h.img) {
			t.Fatalf("snapshot pinned at epoch %d changed under later Apply/Compact calls", h.s.Epoch())
		}
	}
}

// TestVersionedViewMatchesRebuild drives random batches (growth,
// duplicates, deletes of present and absent pairs) with occasional
// compactions over a heap and a packed base, and checks the view of every
// epoch method by method against FromEdges of the model, while earlier
// views stay pinned and unchanged.
func TestVersionedViewMatchesRebuild(t *testing.T) {
	for _, packed := range []bool{false, true} {
		for _, seed := range []int64{3, 11} {
			t.Run(fmt.Sprintf("packed=%v/seed=%d", packed, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				n := 64
				truth := &edgeSet{n: n, edges: make(map[[2]uint32]bool)}
				ins, _ := randomBatch(rng, n, 4*n)
				truth.apply(ins, nil, n)
				var base Graph = truth.rebuild()
				if packed {
					base = compress(t, base)
				}
				vg := NewVersioned(2, base)
				var held []pinnedEpoch
				for step := 0; step < 30; step++ {
					vertices := 0
					if rng.Intn(6) == 0 {
						vertices = truth.n + 1 + rng.Intn(4)
					}
					ins, del := randomBatch(rng, max(truth.n, vertices), 16)
					if len(ins) > 0 {
						del = append(del, ins[0]) // insert then delete within the batch
						ins = append(ins, ins[len(ins)-1])
					}
					truth.apply(ins, del, vertices)
					if _, err := vg.Apply(ins, del, vertices); err != nil {
						t.Fatalf("step %d: apply: %v", step, err)
					}
					if rng.Intn(6) == 0 {
						vg.Compact(2)
					}
					snap := vg.Snapshot()
					want := truth.rebuild()
					requireViewMatches(t, snap.Graph(), want, rng)
					if step%4 == 0 {
						held = append(held, pinnedEpoch{snap, binaryBytes(t, want)})
					} else {
						snap.Release()
					}
					requireHeldUnchanged(t, held)
				}
				vg.Compact(2)
				requireHeldUnchanged(t, held)
				for _, h := range held {
					h.s.Release()
				}
				if p := vg.Pins(); p != 0 {
					t.Fatalf("pin leak: %d outstanding", p)
				}
			})
		}
	}
}

// TestVersionedViewNeverWritesBase traverses a view over a heap base the
// way the kernels do — ns := g.NeighborsInto(buf, v); buf = ns — in random
// order, mixing untouched and touched lists and NeighborsTail at random
// offsets, and scribbles over every returned slice. A view that handed out
// an alias of the base's storage would have its next merge, or the
// scribble, land in the base; the base must read byte-identical afterwards,
// and after a compaction too.
func TestVersionedViewNeverWritesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 200
	ins, _ := randomBatch(rng, n, 6*n)
	base := FromEdges(2, n, ins)
	offsets, adj := slices.Clone(base.offsets), slices.Clone(base.adj)
	vg := NewVersioned(1, base)
	for b := 0; b < 8; b++ {
		ins, del := randomBatch(rng, n, 24)
		for _, w := range base.Neighbors(uint32(rng.Intn(n))) {
			del = append(del, Edge{U: w, V: base.Neighbors(w)[0]}) // deletes of present edges
		}
		if _, err := vg.Apply(ins, del, 0); err != nil {
			t.Fatal(err)
		}
	}
	snap := vg.Snapshot()
	defer snap.Release()
	g := snap.Graph()
	if _, ok := g.(*view); !ok {
		t.Fatalf("snapshot with pending deltas is %T, want a view", g)
	}
	var buf []uint32
	for k := 0; k < 20*n; k++ {
		v := uint32(rng.Intn(n))
		var ns []uint32
		if d := int(g.Degree(v)); d > 0 && rng.Intn(2) == 0 {
			ns, _ = g.NeighborsTail(buf, v, rng.Intn(d))
		} else {
			ns = g.NeighborsInto(buf, v)
		}
		buf = ns
		for i := range ns {
			ns[i] = ^uint32(0)
		}
	}
	vg.Compact(2)
	if !slices.Equal(base.offsets, offsets) || !slices.Equal(base.adj, adj) {
		t.Fatal("traversing the view wrote into the base graph's storage")
	}
}

// TestVersionedCompactRace runs writers, pinning readers and a compaction
// loop at once over a heap and a packed base. Writers own disjoint vertex
// ranges, so the final edge set is each writer's batches folded in its own
// order whatever the interleaving. At the end the view equals the model,
// every observed epoch sequence is monotone, and no pin is left.
func TestVersionedCompactRace(t *testing.T) {
	for _, packed := range []bool{false, true} {
		t.Run(fmt.Sprintf("packed=%v", packed), func(t *testing.T) {
			const n, writers, batches = 240, 3, 40
			rng := rand.New(rand.NewSource(9))
			truth := &edgeSet{n: n, edges: make(map[[2]uint32]bool)}
			ins, _ := randomBatch(rng, n, 3*n)
			truth.apply(ins, nil, n)
			var base Graph = truth.rebuild()
			if packed {
				base = compress(t, base)
			}
			vg := NewVersioned(2, base)

			type batch struct{ ins, del []Edge }
			logs := make([][]batch, writers)
			var wg, readers sync.WaitGroup
			done := make(chan struct{})
			errs := make(chan error, 1)
			report := func(err error) {
				select {
				case errs <- err:
				default: // one failure is enough to report
				}
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(100 + w)))
					lo, span := w*n/writers, n/writers
					var last uint64
					for b := 0; b < batches; b++ {
						var bt batch
						for k := 0; k < 12; k++ {
							e := Edge{U: uint32(lo + r.Intn(span)), V: uint32(lo + r.Intn(span))}
							if e.U == e.V {
								continue
							}
							if r.Intn(3) == 0 {
								bt.del = append(bt.del, e)
							} else {
								bt.ins = append(bt.ins, e)
							}
						}
						st, err := vg.Apply(bt.ins, bt.del, 0)
						if err != nil {
							report(err)
							return
						}
						if st.Epoch <= last {
							report(fmt.Errorf("writer %d: epoch %d after %d", w, st.Epoch, last))
							return
						}
						last = st.Epoch
						logs[w] = append(logs[w], bt)
						runtime.Gosched()
					}
				}(w)
			}
			for rd := 0; rd < 2; rd++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					var last uint64
					for {
						select {
						case <-done:
							return
						default:
						}
						s := vg.Snapshot()
						g := s.Graph()
						if s.Epoch() < last {
							report(fmt.Errorf("reader saw epoch %d after %d", s.Epoch(), last))
						}
						last = s.Epoch()
						// A fresh buffer per snapshot: a heap CSR's list is an
						// alias of its storage, never scratch for another graph.
						var buf []uint32
						var vol uint64
						for v := 0; v < g.NumVertices(); v++ {
							ns := g.NeighborsInto(buf, uint32(v))
							buf = ns
							vol += uint64(len(ns))
							if !slices.IsSorted(ns) {
								report(fmt.Errorf("epoch %d: list of %d not sorted", s.Epoch(), v))
							}
						}
						if vol != g.TotalVolume() {
							report(fmt.Errorf("epoch %d: lists hold %d half-edges, TotalVolume %d", s.Epoch(), vol, g.TotalVolume()))
						}
						s.Release()
					}
				}()
			}
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					vg.Compact(2)
					runtime.Gosched()
				}
			}()
			wg.Wait()
			close(done)
			readers.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			for _, l := range logs {
				for _, b := range l {
					truth.apply(b.ins, b.del, 0)
				}
			}
			want := truth.rebuild()
			s := vg.Snapshot()
			requireStructurallyEqual(t, s.Graph(), want)
			s.Release()
			vg.Compact(2)
			s = vg.Snapshot()
			requireStructurallyEqual(t, s.Graph(), want)
			s.Release()
			if p := vg.Pins(); p != 0 {
				t.Fatalf("pin leak: %d outstanding", p)
			}
		})
	}
}

// TestSnapshotAllocatesWithNNotM pins that a snapshot after a one-record
// batch costs O(n + Δ) bytes, the view's offsets and bitmap, and nothing
// proportional to m: two heap graphs on the same 2^20 vertices with a 4×
// different edge count allocate the same bytes. A merged copy of the graph
// would allocate 4 bytes per half-edge more on the larger one.
func TestSnapshotAllocatesWithNNotM(t *testing.T) {
	const n = 1 << 20
	snapshotBytes := func(m int) uint64 {
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{U: uint32(i % n), V: uint32((i*7919 + i/n + 1) % n)}
		}
		vg := NewVersioned(1, FromEdges(2, n, edges))
		if _, err := vg.Apply([]Edge{{U: 1, V: 2}}, nil, 0); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s := vg.Snapshot()
		runtime.ReadMemStats(&after)
		if _, ok := s.Graph().(*view); !ok {
			t.Fatalf("snapshot is %T, want a view", s.Graph())
		}
		s.Release()
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := snapshotBytes(1<<18), snapshotBytes(1<<20)
	if bound := uint64(8*(n+1) + n/8 + n/16 + 1<<16); small > bound || large > bound {
		t.Fatalf("snapshot allocated %d and %d bytes, want at most %d (offsets, bitmap and its rank, patch)", small, large, bound)
	}
	if large > small+small/16 {
		t.Fatalf("snapshot allocation grows with m: %d bytes at m = 2^18, %d at m = 2^20", small, large)
	}
}

// FuzzVersionedView derives a small base (heap or packed) from the fuzz
// bytes, then a sequence of Apply steps (growth, duplicate records, insert
// then delete of one pair within a batch and across batches), Compact
// steps and pins. After every step the current view must match FromEdges
// of the model method by method, and every pinned view must read as when
// it was taken.
func FuzzVersionedView(f *testing.F) {
	f.Add([]byte{0, 8, 12, 1, 2, 2, 3, 3, 4, 0, 6, 1, 2, 5, 3, 4, 7, 4, 5})
	f.Add([]byte{1, 12, 20, 0, 1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 9, 0, 5, 2, 1, 3, 3, 4, 1, 5, 0, 9, 1, 2})
	f.Add([]byte{1, 3, 0, 2, 7, 0, 1, 1, 2, 2, 0, 1, 4, 5, 6, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		packed := next()%2 == 1
		n := 2 + next()%30
		truth := &edgeSet{n: n, edges: make(map[[2]uint32]bool)}
		var baseEdges []Edge
		for k := next() % 64; k > 0; k-- {
			if e := (Edge{U: uint32(next() % n), V: uint32(next() % n)}); e.U != e.V {
				baseEdges = append(baseEdges, e)
			}
		}
		truth.apply(baseEdges, nil, n)
		var base Graph = truth.rebuild()
		if packed {
			base = compress(t, base)
		}
		vg := NewVersioned(1, base)
		rng := rand.New(rand.NewSource(int64(len(data))))
		var held []pinnedEpoch
		var last Edge
		for step := 0; len(data) > 0 && step < 24; step++ {
			switch op := next() % 8; {
			case op < 5:
				vertices := 0
				if next()%4 == 0 {
					vertices = truth.n + 1 + next()%3
				}
				span := max(truth.n, vertices)
				var ins, del []Edge
				for k := next() % 8; k > 0; k-- {
					e := Edge{U: uint32(next() % span), V: uint32(next() % span)}
					if e.U == e.V {
						continue
					}
					switch next() % 4 {
					case 0:
						ins = append(ins, e)
					case 1:
						del = append(del, e)
					case 2: // insert then delete within the batch
						ins = append(ins, e)
						del = append(del, Edge{U: e.V, V: e.U})
					case 3: // a pair of an earlier batch, inserted twice
						if int(last.V) < span && last.U != last.V {
							e = last
						}
						ins = append(ins, e, e)
					}
					last = e
				}
				if _, err := vg.Apply(ins, del, vertices); err != nil {
					t.Fatalf("apply: %v", err)
				}
				truth.apply(ins, del, vertices)
			case op == 5:
				vg.Compact(1 + next()%2)
			case op == 6:
				s := vg.Snapshot()
				held = append(held, pinnedEpoch{s, binaryBytes(t, truth.rebuild())})
			default:
				if len(held) > 0 {
					held[0].s.Release()
					held = held[1:]
				}
			}
			s := vg.Snapshot()
			requireViewMatches(t, s.Graph(), truth.rebuild(), rng)
			s.Release()
			requireHeldUnchanged(t, held)
		}
		for _, h := range held {
			h.s.Release()
		}
		if p := vg.Pins(); p != 0 {
			t.Fatalf("pin leak: %d outstanding", p)
		}
	})
}
