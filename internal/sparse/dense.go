package sparse

// dense.go implements the flat ("dense") side of the adaptive sparse/dense
// vector split. Ligra's own implementation keeps all diffusion state in
// graph-sized arrays; our reproduction historically kept everything in hash
// tables to preserve strong locality bounds. Dense is the middle ground: a
// graph-sized value array plus a *touched list*, so reads and writes are
// O(1) array operations with no hashing or probing, while clearing remains
// proportional to the number of entries actually touched — the per-iteration
// locality guarantee the algorithms rely on. The frontier engine promotes a
// vector from ConcurrentMap to Dense once its support bound crosses a
// fraction of n (see internal/core), at which point the one-time O(n)
// allocation is already amortized by the work bound.

import (
	"math"
	"sync/atomic"

	"parcluster/internal/parallel"
)

// Dense is a concurrent sparse vector over a fixed universe [0, n): a flat
// value array with a touched list. It implements Table with the same
// phase-concurrency contract as ConcurrentMap: any number of goroutines may
// Add/Set/Get concurrently; Reset and read-side iteration are phase
// boundaries. A phase in which every key has a single accessor may use the
// plain-store operations instead (AddOwned, PutOwned). Construct with
// NewDense; the zero value is not usable.
type Dense struct {
	vals []uint64 // math.Float64bits of the value; CAS loops, or plain stores by a key's owner
	// present[k] flips absent -> listed exactly once per key via CAS; the
	// winner appends k to the touched list. Single-writer phases may park a
	// key at pending in between (see Defer).
	present   []uint32
	touched   []uint32
	ntouched  atomic.Int64
	deferring bool
}

// States of a present entry.
const (
	absent  = 0
	listed  = 1
	pending = 2 // created by AddOwned while deferring; PutOwned lists it
)

// NewDense returns a dense vector over the universe [0, n).
func NewDense(n int) *Dense {
	if n < 0 {
		n = 0
	}
	return &Dense{
		vals:    make([]uint64, n),
		present: make([]uint32, n),
		touched: make([]uint32, n),
	}
}

// Universe returns the key-universe size n the vector was built for.
func (d *Dense) Universe() int { return len(d.vals) }

// Len returns the number of entries touched since the last Reset.
func (d *Dense) Len() int { return int(d.ntouched.Load()) }

// Get returns the value for k, or 0 if absent. Safe under concurrent Adds;
// a concurrent read sees either the pre- or post-update value.
func (d *Dense) Get(k uint32) float64 {
	return math.Float64frombits(atomic.LoadUint64(&d.vals[k]))
}

// Has reports whether k has been touched.
func (d *Dense) Has(k uint32) bool { return atomic.LoadUint32(&d.present[k]) != absent }

// claim marks k touched, recording it in the touched list exactly once, and
// reports whether this call was the one that created the entry.
func (d *Dense) claim(k uint32) (created bool) {
	if atomic.LoadUint32(&d.present[k]) != absent {
		return false
	}
	if !atomic.CompareAndSwapUint32(&d.present[k], absent, listed) {
		return false
	}
	d.touched[d.ntouched.Add(1)-1] = k
	return true
}

// Add atomically accumulates delta into k's value (fetch-and-add), creating
// the entry if needed, and reports whether this call created it.
func (d *Dense) Add(k uint32, delta float64) (created bool) {
	created = d.claim(k)
	addr := &d.vals[k]
	for {
		old := atomic.LoadUint64(addr)
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if atomic.CompareAndSwapUint64(addr, old, next) {
			return created
		}
	}
}

// Set atomically overwrites k's value (last writer wins), creating the
// entry if needed, and reports whether this call created it.
func (d *Dense) Set(k uint32, v float64) (created bool) {
	created = d.claim(k)
	atomic.StoreUint64(&d.vals[k], math.Float64bits(v))
	return created
}

// AddOwned is Add for a phase in which the calling goroutine is the only one
// that reads or writes k (the engine's vertex phase and merge, where every
// key belongs to exactly one frontier or touched vertex): a plain
// read-modify-write instead of a CAS loop. While the vector is deferring
// (see Defer) a key it creates is marked pending instead of listed.
func (d *Dense) AddOwned(k uint32, delta float64) {
	if d.present[k] == absent {
		if d.deferring {
			d.present[k] = pending
		} else {
			d.present[k] = listed
			d.touched[d.ntouched.Add(1)-1] = k
		}
	}
	d.vals[k] = math.Float64bits(math.Float64frombits(d.vals[k]) + delta)
}

// AddSerial is AddOwned returning k's new value: the only step of AddOwned
// that is not already a plain load or store is the touched-list counter.
func (d *Dense) AddSerial(k uint32, delta float64) float64 {
	d.AddOwned(k, delta)
	return math.Float64frombits(d.vals[k])
}

// Defer switches listing of the keys AddOwned creates off (on = true) or
// back on. Listing is the one step of AddOwned that workers share — a
// counter and the tail of the touched list — and a pull round has no use
// for it: its PutOwned pass visits every key anyway and lists the pending
// ones in batches. Every Defer(true) must be followed, before the next phase
// boundary that reads the list, by such a pass over the whole universe and
// Defer(false); ligra.EdgePull is that pass. Phase boundary only.
func (d *Dense) Defer(on bool) { d.deferring = on }

// PutOwned is the pull round's per-destination store, under AddOwned's
// single-accessor contract: it overwrites k's value with a plain store. An
// absent key is created only when v != 0 — a destination no frontier
// neighbour pushed to stays absent. A key it creates, or finds pending, is
// reported as created but not yet listed: the caller collects such keys and
// hands them to Touch in batches, so listing costs one atomic per batch
// instead of one per key.
func (d *Dense) PutOwned(k uint32, v float64) (created bool) {
	switch d.present[k] {
	case absent:
		if v == 0 {
			return false
		}
		fallthrough
	case pending:
		d.present[k] = listed
		created = true
	}
	d.vals[k] = math.Float64bits(v)
	return created
}

// Touch appends keys PutOwned reported as created to the touched list. Safe
// for concurrent callers with disjoint batches.
func (d *Dense) Touch(keys []uint32) {
	if len(keys) == 0 {
		return
	}
	hi := d.ntouched.Add(int64(len(keys)))
	copy(d.touched[hi-int64(len(keys)):hi], keys)
}

// Reset clears the vector in O(touched) work using p workers; the capacity
// argument is accepted for Table compatibility and ignored (the universe is
// fixed at n). Phase boundary only.
func (d *Dense) Reset(p, _ int) {
	n := int(d.ntouched.Load())
	touched := d.touched[:n]
	parallel.For(p, n, 2048, func(i int) {
		k := touched[i]
		d.vals[k] = 0
		d.present[k] = absent
	})
	d.ntouched.Store(0)
}

// Keys returns the touched keys, in unspecified order. The slice aliases
// internal storage: it must not be modified and is valid until the next
// Reset. Must not run concurrently with writers.
func (d *Dense) Keys(int) []uint32 { return d.touched[:d.ntouched.Load()] }

// Sum returns the sum of all values using p workers. Must not run
// concurrently with writers.
func (d *Dense) Sum(p int) float64 {
	n := int(d.ntouched.Load())
	const grain = 4096
	if n < 2*grain || parallel.ResolveProcs(p) == 1 {
		s := 0.0
		for _, k := range d.touched[:n] {
			s += math.Float64frombits(d.vals[k])
		}
		return s
	}
	sums := make([]float64, (n+grain-1)/grain)
	parallel.ForRange(p, n, grain, func(lo, hi int) {
		s := 0.0
		for _, k := range d.touched[lo:hi] {
			s += math.Float64frombits(d.vals[k])
		}
		sums[lo/grain] = s
	})
	s := 0.0
	for _, v := range sums {
		s += v
	}
	return s
}

// ForEach calls fn for every touched entry, in unspecified order. Must not
// run concurrently with writers.
func (d *Dense) ForEach(fn func(k uint32, v float64)) {
	for _, k := range d.touched[:d.ntouched.Load()] {
		fn(k, math.Float64frombits(d.vals[k]))
	}
}

// PromoteToDense copies a vector's entries into a fresh Dense over [0, n).
// It is the index -> array promotion step of a diffusion run: called at a
// phase boundary when the support bound crosses the promotion threshold.
func PromoteToDense(n int, from Source) *Dense {
	d := NewDense(n)
	from.ForEach(func(k uint32, v float64) { d.Set(k, v) })
	return d
}
