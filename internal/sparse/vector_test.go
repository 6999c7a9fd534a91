package sparse

import (
	"math"
	"slices"
	"testing"
)

// listing returns v's entries in the order it lists them.
func listing(v *Vector) (ids []uint32, vals []float64) {
	v.ForEach(func(k uint32, x float64) {
		ids = append(ids, k)
		vals = append(vals, x)
	})
	return ids, vals
}

// TestSnapshotFromIndexView pins the snapshot of an index column one
// goroutine wrote: its entries in slot (creation) order, or in the order of
// the list it is viewed through, explicit zeros dropped, every value scaled,
// and a copy that later column writes do not reach.
func TestSnapshotFromIndexView(t *testing.T) {
	x := NewIndex(4) // grows past its capacity: columns are fetched again
	for _, v := range []uint32{9, 1, 4, 7, 3, 12, 30, 31} {
		x.Slot(v)
	}
	col := x.Col(0)
	add := func(v uint32, d float64) {
		s, _ := x.Find(v)
		col[s] += d
	}
	add(9, 1.5)
	add(1, 0.5)
	// 4 keeps an explicit zero
	add(7, 2)
	add(7, -2) // cancels exactly
	add(3, -1)
	v := Snapshot(x.View(col, nil), 1)
	ids, vals := listing(v)
	if !slices.Equal(ids, []uint32{9, 1, 3}) || !slices.Equal(vals, []float64{1.5, 0.5, -1}) {
		t.Fatalf("snapshot lists %v %v, want [9 1 3] [1.5 0.5 -1]", ids, vals)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d, want 3", v.Len())
	}
	if eids, evals := v.Entries(); !slices.Equal(eids, ids) || !slices.Equal(evals, vals) {
		t.Fatalf("Entries = %v %v, ForEach lists %v %v", eids, evals, ids, vals)
	}
	// Through a list: the list's order, its zero-valued slots dropped.
	if ids, vals := listing(Snapshot(x.View(col, []uint32{4, 2, 0, 3}), 1)); !slices.Equal(ids, []uint32{3, 9}) || !slices.Equal(vals, []float64{-1, 1.5}) {
		t.Fatalf("listed snapshot lists %v %v, want [3 9] [-1 1.5]", ids, vals)
	}
	col[0] = 100
	if ids2, vals2 := listing(v); !slices.Equal(ids2, ids) || !slices.Equal(vals2, vals) {
		t.Fatal("writes to the column after the snapshot reached it")
	}
	x = NewIndex(8)
	col = x.Col(0)
	col[x.Slot(2)] = 3
	col[x.Slot(5)] = math.SmallestNonzeroFloat64
	if ids, vals := listing(Snapshot(x.View(col, nil), 0.5)); !slices.Equal(ids, []uint32{2}) || !slices.Equal(vals, []float64{1.5}) {
		t.Fatalf("scaled snapshot lists %v %v, want [2] [1.5] (a value scaled to zero is dropped)", ids, vals)
	}
}

// TestSnapshotFromMapDenseAndLane checks the other three sources: each key
// once, zeros dropped, values exact.
func TestSnapshotFromMapDenseAndLane(t *testing.T) {
	want := map[uint32]float64{2: 0.25, 11: 3, 40: -0.5}
	mp := NewMap(4)
	d := NewDense(64)
	lanes := NewLanes(64)
	for k, x := range want {
		mp.Set(k, x)
		d.Add(k, x)
		lanes.Set(k, 5, x)
		lanes.Touch(k, 1<<5)
		lanes.Set(k, 6, 1) // another lane at the same vertex
		lanes.Touch(k, 1<<6)
	}
	mp.Set(20, 0)
	d.Set(21, 0)
	lanes.Touch(22, 1<<5) // touched, value 0
	lanes.Set(23, 6, 1)   // another lane only
	lanes.Touch(23, 1<<6)
	for name, src := range map[string]Source{"map": mp, "dense": d, "lane": lanes.Lane(5)} {
		v := Snapshot(src, 1)
		if v.Len() != len(want) {
			t.Fatalf("%s: Len = %d, want %d", name, v.Len(), len(want))
		}
		v.ForEach(func(k uint32, x float64) {
			if w, ok := want[k]; !ok || math.Float64bits(w) != math.Float64bits(x) {
				t.Fatalf("%s: entry %d = %v, want %v (present %t)", name, k, x, w, ok)
			}
		})
	}
	if n := lanes.Lane(6).Len(); n != 4 {
		t.Fatalf("lane 6 lists %d vertices, want 4", n)
	}
}
