// Package sparse implements the sparse-set representations the paper's local
// algorithms depend on (§2 "Sparse Sets"): the vertex → slot Index one
// diffusion run shares between all of its vectors (index.go), a sequential
// map-backed set, a lock-free concurrent hash table in the style of the
// phase-concurrent table of Shun & Blelloch [42], and the flat Dense vector
// and the 64-lane Lanes bank the parallel kernels promote to or batch in. A
// finished diffusion leaves its vector as a Vector: Snapshot copies the
// nonzero entries once into two owned slices, IDs and values, which is all
// the sweep cut reads.
//
// A sparse set stores (vertex, float64) pairs with the paper's ⊥ = 0
// convention: reading an absent key yields 0, and updating an absent key
// implicitly creates it. The sets expose Add (the paper's fetch-and-add),
// Set, Get, and iteration. A diffusion run keeps its vectors as plain
// columns beside its Index instead, so it hashes a vertex once per edge
// whatever the number of vectors, and learns the vertices a round touched
// from the index's round stamps, without any graph-sized scratch array.
//
// The hash tables are open-addressing with linear probing over power-of-two
// capacity at no more than 50% load. Keys are claimed with compare-and-swap;
// values are accumulated with a CAS loop on the math.Float64bits image (an
// atomic floating-point fetch-and-add). They are phase-concurrent in the
// paper's sense: any number of goroutines may claim and add concurrently,
// while capacity changes must happen between parallel phases. Capacity for
// a shared phase is reserved up front from the known per-iteration bound
// (frontier size + frontier volume), exactly as the paper sizes its tables.
package sparse

import (
	"math"
	"runtime"
	"sync/atomic"
)

var (
	_ Source = (*Map)(nil)
	_ Source = (*ConcurrentMap)(nil)
	_ Source = (*Dense)(nil)
)

// emptyKey marks an unoccupied slot. Vertex IDs must be < MaxUint32.
const emptyKey = ^uint32(0)

// hash32 is a multiplicative (Fibonacci) hash with the product's high half
// folded onto its low half, so that the low bits a power-of-two table
// indexes by depend on every bit of the key. Consecutive vertex IDs, a
// cluster's usual shape, are what it spreads best, and it costs one multiply
// where the tables are probed once per edge (the Murmur3 finalizer it
// replaces measured 13% slower over a whole local query and its sweep).
func hash32(k uint32) uint32 {
	k *= 0x9E3779B1
	return k ^ k>>15
}

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

// ConcurrentMap is the lock-free sparse set of the parallel sweeps' rank
// tables and rand-HK-PR's walk counts. Construct with NewConcurrent, sized
// for everything it will hold; the zero value is not usable.
//
// Besides the open-addressing arrays the table keeps a creation log: the
// slot of every entry created. Len and ForEach walk the log, so each costs
// the entries the table holds, never its capacity. One writer logs in
// program order, so what it reads back does not depend on the table's
// capacity or its hash function.
type ConcurrentMap struct {
	keys []uint32 // emptyKey = free slot; claimed with CAS
	vals []uint64 // math.Float64bits of the value; updated with CAS loops
	mask uint32
	// log[:n] is the creation log, with room for the entries the table holds
	// at 50% load — what NewConcurrent sizes it for; one more is the
	// overflow. n advances by atomic add, or by a plain increment when the
	// writer is alone (the *Serial operations).
	log []uint32
	n   uint32
}

// NewConcurrent returns a concurrent sparse set able to hold at least
// capacity entries without exceeding a 50% load factor.
func NewConcurrent(capacity int) *ConcurrentMap {
	size := tableSize(capacity)
	m := &ConcurrentMap{
		keys: make([]uint32, size),
		vals: make([]uint64, size),
		mask: uint32(size - 1),
		log:  make([]uint32, size/2),
	}
	for i := range m.keys {
		m.keys[i] = emptyKey
	}
	return m
}

func tableSize(capacity int) int {
	if capacity < 4 {
		capacity = 4
	}
	size := 8
	for size < 2*capacity {
		size <<= 1
	}
	return size
}

// Len returns the number of entries. Safe to call concurrently; the value is
// exact once all concurrent Adds have completed.
func (m *ConcurrentMap) Len() int { return int(atomic.LoadUint32(&m.n)) }

const overflowMsg = "sparse: ConcurrentMap overflow; NewConcurrent was not given a sufficient bound"

// findOrClaim returns the slot index for key k, claiming an empty slot if k
// is not present. created reports whether this call inserted k.
func (m *ConcurrentMap) findOrClaim(k uint32) (slot uint32, created bool) {
	i := hash32(k) & m.mask
	// Every pass — including a lost-CAS re-read of the same slot — counts
	// toward the probe bound, so the hard-overflow backstop fires even if
	// the loop stops advancing. A slot costs at most two passes (one lost
	// CAS plus one re-read), hence the 2x margin.
	for probes := 0; probes <= 2*len(m.keys); probes++ {
		cur := atomic.LoadUint32(&m.keys[i])
		if cur == k {
			return i, false
		}
		if cur == emptyKey {
			if atomic.CompareAndSwapUint32(&m.keys[i], emptyKey, k) {
				// Callers size the table with a bound, so outgrowing the log
				// means that bound was wrong.
				at := atomic.AddUint32(&m.n, 1) - 1
				if int(at) >= len(m.log) {
					panic(overflowMsg)
				}
				m.log[at] = i
				return i, true
			}
			// Lost the race; re-read this slot (it may now hold k).
			continue
		}
		i = (i + 1) & m.mask
	}
	panic(overflowMsg)
}

// findOrClaimSerial is findOrClaim for a phase in which one goroutine has
// the whole table to itself: plain loads and stores. The log overflows
// before the table fills, so the probe ends at k or at a free slot.
func (m *ConcurrentMap) findOrClaimSerial(k uint32) (slot uint32) {
	for i := hash32(k) & m.mask; ; i = (i + 1) & m.mask {
		switch m.keys[i] {
		case k:
			return i
		case emptyKey:
			if int(m.n) >= len(m.log) {
				panic(overflowMsg)
			}
			m.keys[i] = k
			m.log[m.n] = i
			m.n++
			return i
		}
	}
}

// find returns the slot of k, or -1 if absent.
func (m *ConcurrentMap) find(k uint32) int {
	i := hash32(k) & m.mask
	for probes := 0; probes <= len(m.keys); probes++ {
		cur := atomic.LoadUint32(&m.keys[i])
		if cur == k {
			return int(i)
		}
		if cur == emptyKey {
			return -1
		}
		i = (i + 1) & m.mask
	}
	return -1
}

// Get returns the value for k, or 0 if absent. Safe under concurrent Adds;
// a concurrent read sees either the pre- or post-update value.
func (m *ConcurrentMap) Get(k uint32) float64 {
	// Most lookups end at the key's home slot, present or not; only a
	// collision pays for the call to find.
	i := int(hash32(k) & m.mask)
	switch atomic.LoadUint32(&m.keys[i]) {
	case emptyKey:
		return 0
	case k:
	default:
		if i = m.find(k); i < 0 {
			return 0
		}
	}
	return math.Float64frombits(atomic.LoadUint64(&m.vals[i]))
}

// Add atomically accumulates delta into k's value (the paper's
// fetch-and-add), creating the entry if needed, and reports whether this
// call created it. Safe for any number of concurrent callers.
func (m *ConcurrentMap) Add(k uint32, delta float64) (created bool) {
	slot, created := m.findOrClaim(k)
	addr := &m.vals[slot]
	for {
		old := atomic.LoadUint64(addr)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, next) {
			return created
		}
	}
}

// AddSerial is Add for a phase in which one goroutine has the whole table to
// itself — no atomics anywhere — and returns k's new value.
func (m *ConcurrentMap) AddSerial(k uint32, delta float64) float64 {
	// As in Get: an entry sitting in its home slot is updated without a call.
	slot := hash32(k) & m.mask
	if m.keys[slot] != k {
		slot = m.findOrClaimSerial(k)
	}
	x := math.Float64frombits(m.vals[slot]) + delta
	m.vals[slot] = math.Float64bits(x)
	return x
}

// Set atomically overwrites k's value (last writer wins), creating the entry
// if needed, and reports whether this call created it.
func (m *ConcurrentMap) Set(k uint32, v float64) (created bool) {
	slot, created := m.findOrClaim(k)
	atomic.StoreUint64(&m.vals[slot], math.Float64bits(v))
	return created
}

// ForEach calls fn for every entry, in creation order. Must not run
// concurrently with writers.
func (m *ConcurrentMap) ForEach(fn func(k uint32, v float64)) {
	for _, slot := range m.log[:m.n] {
		fn(m.keys[slot], math.Float64frombits(m.vals[slot]))
	}
}

// IDMap assigns dense consecutive IDs (0, 1, 2, ...) to a sparse set of
// uint32 keys, concurrently. rand-HK-PR uses it to map the last-visited
// vertices of random walks onto a compact integer range before the parallel
// integer sort (§3.5).
type IDMap struct {
	keys []uint32
	ids  []int32
	mask uint32
	next atomic.Int32
}

// NewIDMap returns an IDMap with capacity for at least capacity distinct keys.
func NewIDMap(capacity int) *IDMap {
	size := tableSize(capacity)
	m := &IDMap{
		keys: make([]uint32, size),
		ids:  make([]int32, size),
		mask: uint32(size - 1),
	}
	for i := range m.keys {
		m.keys[i] = emptyKey
	}
	return m
}

// Assign returns the dense ID for k, allocating the next free ID if k is
// new. Safe for concurrent use. IDs are dense in [0, Count()) but their
// assignment order is nondeterministic under concurrency.
func (m *IDMap) Assign(k uint32) int32 {
	i := hash32(k) & m.mask
	for probes := 0; probes <= 2*len(m.keys); probes++ {
		cur := atomic.LoadUint32(&m.keys[i])
		if cur == k {
			// The ID may not be published yet if the claimer is between its
			// two stores; wait until it is (ids are stored as id+1 so 0
			// means unpublished). Yield to the scheduler between reads: on
			// GOMAXPROCS=1 the claimer cannot run — and publish — until this
			// goroutine gives up the processor, so a raw spin would livelock.
			for {
				if id := atomic.LoadInt32(&m.ids[i]); id != 0 {
					return id - 1
				}
				runtime.Gosched()
			}
		}
		if cur == emptyKey {
			if atomic.CompareAndSwapUint32(&m.keys[i], emptyKey, k) {
				id := m.next.Add(1) - 1
				atomic.StoreInt32(&m.ids[i], id+1)
				if int(id) >= len(m.keys)/2 {
					panic("sparse: IDMap overflow")
				}
				return id
			}
			// Lost the race; re-read this slot. Counts as a probe so the
			// full-table backstop below stays reachable.
			continue
		}
		i = (i + 1) & m.mask
	}
	panic("sparse: IDMap full")
}

// Count returns the number of distinct keys assigned so far.
func (m *IDMap) Count() int { return int(m.next.Load()) }

// ForEach calls fn(key, id) for every assignment. Must not run concurrently
// with Assign.
func (m *IDMap) ForEach(fn func(k uint32, id int32)) {
	for i, k := range m.keys {
		if k != emptyKey {
			fn(k, m.ids[i]-1)
		}
	}
}
