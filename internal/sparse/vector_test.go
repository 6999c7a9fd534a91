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

// TestSnapshotFromConcurrentMap pins the snapshot of a table one goroutine
// wrote: its entries in creation order, explicit zeros dropped, every value
// scaled, and a copy that later writes to the table do not reach.
func TestSnapshotFromConcurrentMap(t *testing.T) {
	m := NewConcurrent(10)
	m.AddSerial(9, 1.5)
	m.Add(1, 0.5)
	m.Set(4, 0) // explicit zero
	m.AddSerial(7, 2)
	m.AddSerial(7, -2) // cancels exactly
	m.AddSerial(3, -1)
	v := Snapshot(m, 1)
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
	m.Set(9, 100)
	if ids2, vals2 := listing(v); !slices.Equal(ids2, ids) || !slices.Equal(vals2, vals) {
		t.Fatal("writes to the table after the snapshot reached it")
	}
	m = NewConcurrent(8)
	m.AddSerial(2, 3)
	m.AddSerial(5, math.SmallestNonzeroFloat64)
	if ids, vals := listing(Snapshot(m, 0.5)); !slices.Equal(ids, []uint32{2}) || !slices.Equal(vals, []float64{1.5}) {
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
