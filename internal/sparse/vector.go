package sparse

// Vector is a diffusion result: the nonzero (vertex, mass) entries of the
// table a kernel accumulated into, copied once into two owned slices. A
// local algorithm's answer is as large as its support, not its graph, and
// its one consumer, the sweep cut, lists the entries once and sorts them by
// score itself, so a Vector offers no lookup and no mutation.
//
// Invariants: IDs are distinct, no value is zero, and entries come in the
// producing table's listing order — creation order when one goroutine wrote
// the table — which no caller may rely on. Snapshot is the only constructor,
// so no caller can hand the sweep a duplicate ID.
type Vector struct {
	ids  []uint32
	vals []float64
}

// Len returns the number of entries.
func (v *Vector) Len() int { return len(v.ids) }

// ForEach calls fn for every entry, in listing order.
func (v *Vector) ForEach(fn func(k uint32, x float64)) {
	for i, k := range v.ids {
		fn(k, v.vals[i])
	}
}

// Entries returns the vector's IDs and values, index-aligned, for readers
// that scan them directly (the sweep). The slices must not be modified.
func (v *Vector) Entries() (ids []uint32, vals []float64) { return v.ids, v.vals }

// Source is a table Snapshot reads: a Map, a Dense, a column of an Index
// (Index.View), or one lane of a Lanes bank (Lanes.Lane). Each lists every
// key it holds exactly once; the unexported method keeps the set closed.
type Source interface {
	// Len returns the number of entries.
	Len() int
	// ForEach calls fn for every entry, each key once. Must not run
	// concurrently with writers.
	ForEach(fn func(k uint32, v float64))
	listsKeysOnce()
}

func (*Map) listsKeysOnce()     {}
func (*Dense) listsKeysOnce()   {}
func (laneView) listsKeysOnce() {}

// Snapshot copies t's entries, each multiplied by scale, into a new Vector
// the caller owns, in t's listing order, dropping the ones that are zero
// (mass that cancelled exactly, e.g. a residual pushed out in full). Pass
// scale = 1 for a plain copy. Must not run concurrently with writers.
func Snapshot(t Source, scale float64) *Vector {
	n := t.Len()
	out := &Vector{ids: make([]uint32, 0, n), vals: make([]float64, 0, n)}
	t.ForEach(func(k uint32, x float64) {
		if x *= scale; x != 0 {
			out.ids = append(out.ids, k)
			out.vals = append(out.vals, x)
		}
	})
	return out
}
