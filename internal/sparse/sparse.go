// Package sparse implements the sparse-set representations the paper's local
// algorithms depend on (§2 "Sparse Sets"): the vertex → slot Index, the one
// phase-concurrent hash table, in the style of Shun & Blelloch [42], that
// every parallel caller claims vertices in (index.go); a sequential
// map-backed set; and the flat Dense vector and the 64-lane Lanes bank the
// parallel kernels promote to or batch in. A finished diffusion leaves its
// vector as a Vector: Snapshot copies the nonzero entries once into two
// owned slices, IDs and values, which is all the sweep cut reads.
//
// A sparse set stores (vertex, float64) pairs with the paper's ⊥ = 0
// convention: reading an absent key yields 0, and updating an absent key
// implicitly creates it. The sets expose Add (the paper's fetch-and-add),
// Set, Get, and iteration. An Index keeps its values as plain slot-indexed
// columns beside the table instead, so a diffusion run hashes a vertex once
// per edge whatever the number of vectors, and learns the vertices a round
// touched from the index's round stamps, without any graph-sized scratch
// array; a shared phase adds into a column with AtomicAdd (a CAS loop on
// the value's math.Float64bits image).
//
// The Index is open addressing with linear probing over power-of-two
// capacity at no more than 50% load. Keys are claimed with compare-and-swap.
// It is phase-concurrent in the paper's sense: any number of goroutines may
// claim and add concurrently, while capacity changes happen between parallel
// phases. Capacity for a shared phase is reserved up front from a known
// bound (frontier size + frontier volume for a diffusion round, the support
// for a sweep's ranks, min(walks, n) for rand-HK-PR's destinations),
// exactly as the paper sizes its tables.
package sparse

var (
	_ Source = (*Map)(nil)
	_ Source = (*Dense)(nil)
)

// Map is the sequential sparse set (the paper uses STL unordered_map here).
// The zero value is not ready to use; construct with NewMap.
type Map struct {
	m map[uint32]float64
}

// NewMap returns a sequential sparse set with capacity hint cap.
func NewMap(capacity int) *Map {
	if capacity < 0 {
		capacity = 0
	}
	return &Map{m: make(map[uint32]float64, capacity)}
}

// Get returns the value for k, or 0 if absent (⊥ = 0).
func (m *Map) Get(k uint32) float64 { return m.m[k] }

// Has reports whether k is present.
func (m *Map) Has(k uint32) bool { _, ok := m.m[k]; return ok }

// Add accumulates delta into k's value, creating the entry if needed, and
// reports whether it was created.
func (m *Map) Add(k uint32, delta float64) (created bool) {
	old, ok := m.m[k]
	m.m[k] = old + delta
	return !ok
}

// Set overwrites k's value.
func (m *Map) Set(k uint32, v float64) { m.m[k] = v }

// Delete removes k if present.
func (m *Map) Delete(k uint32) { delete(m.m, k) }

// Len returns the number of entries.
func (m *Map) Len() int { return len(m.m) }

// ForEach calls fn for every entry, in unspecified order.
func (m *Map) ForEach(fn func(k uint32, v float64)) {
	for k, v := range m.m {
		fn(k, v)
	}
}
