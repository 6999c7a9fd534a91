package sparse

// lanes.go implements the lane-striped vector bank behind the bit-parallel
// batched diffusions (internal/core/batch.go): up to 64 independent sparse
// vectors ("lanes") over one vertex universe, stored SoA-style as a single
// flat array of 64 float64 slots per vertex. One shared edge traversal can
// then advance all lanes at once — the batch reads a vertex's lane mask,
// walks its set bits, and updates each lane's slot — while clearing stays
// proportional to the vertices actually touched, exactly like Dense.
//
// The stride is fixed at 64 regardless of how many lanes a batch fills, so
// one pooled allocation serves any batch size and a lane index is always a
// shift, never a multiply.

import (
	"math"
	"math/bits"
	"sync/atomic"

	"parcluster/internal/parallel"
)

// LaneStride is the number of value slots per vertex in a Lanes bank — the
// width of the per-vertex lane mask.
const LaneStride = 64

// Lanes is a bank of up to 64 concurrent sparse vectors over a fixed
// universe [0, n): a flat 64-slot-per-vertex value array, a per-vertex
// uint64 mask of the lanes that touched it, and a touched-vertex list. The
// phase-concurrency contract matches Dense: any number of goroutines may
// AtomicAdd/Touch concurrently; Set/Add require a single writer per vertex;
// Reset and read-side iteration (Get/Mask/Touched) are phase boundaries.
// Construct with NewLanes; the zero value is not usable.
type Lanes struct {
	vals []uint64 // math.Float64bits of vals[v*64+lane]; CAS-updated in edge phases
	// mask[v] is the set of lanes that touched v since the last Reset,
	// advanced by atomic fetch-OR; the writer that flips it 0 -> nonzero
	// appends v to the touched list.
	mask     []uint64
	touched  []uint32
	ntouched atomic.Int64
}

// NewLanes returns a lane bank over the universe [0, n).
func NewLanes(n int) *Lanes {
	if n < 0 {
		n = 0
	}
	return &Lanes{
		vals:    make([]uint64, n*LaneStride),
		mask:    make([]uint64, n),
		touched: make([]uint32, n),
	}
}

// Universe returns the vertex-universe size n the bank was built for.
func (l *Lanes) Universe() int { return len(l.mask) }

// Len returns the number of vertices touched (in any lane) since the last
// Reset.
func (l *Lanes) Len() int { return int(l.ntouched.Load()) }

// Mask returns the set of lanes that have touched v.
func (l *Lanes) Mask(v uint32) uint64 { return atomic.LoadUint64(&l.mask[v]) }

// Get returns lane's value at v, or 0 if untouched. Phase-boundary read:
// must not run concurrently with writers to v.
func (l *Lanes) Get(v uint32, lane int) float64 {
	return math.Float64frombits(l.vals[int(v)<<6+lane])
}

// Set overwrites lane's value at v without recording it in the mask or
// touched list (pair with Touch). Single-writer: no other goroutine may
// write v concurrently.
func (l *Lanes) Set(v uint32, lane int, x float64) {
	l.vals[int(v)<<6+lane] = math.Float64bits(x)
}

// Add accumulates x into lane's value at v without recording it in the mask
// or touched list (pair with Touch). Single-writer: no other goroutine may
// write v concurrently.
func (l *Lanes) Add(v uint32, lane int, x float64) {
	i := int(v)<<6 + lane
	l.vals[i] = math.Float64bits(math.Float64frombits(l.vals[i]) + x)
}

// AddMasked accumulates xs[l] into lane l's value at v for every set bit l
// of mask, in ascending lane order. xs is indexed by lane (at least
// LaneStride entries). Single-writer like Add: no other goroutine may write
// v concurrently. This is the single-proc edge-phase fast path — one bounds
// check for the whole row and no CAS, where per-lane AtomicAdd would pay an
// uncontended CAS per push.
func (l *Lanes) AddMasked(v uint32, xs []float64, mask uint64) {
	row := l.vals[int(v)<<6 : int(v)<<6+LaneStride]
	xs = xs[:LaneStride]
	if mask == ^uint64(0) {
		// Full batch: a straight ascending loop the compiler can unroll.
		for i := range row {
			row[i] = math.Float64bits(math.Float64frombits(row[i]) + xs[i])
		}
		return
	}
	for mm := mask; mm != 0; mm &= mm - 1 {
		i := bits.TrailingZeros64(mm)
		row[i] = math.Float64bits(math.Float64frombits(row[i]) + xs[i])
	}
}

// AtomicAdd accumulates x into lane's value at v with a CAS loop
// (fetch-and-add), safe under any number of concurrent writers. It does not
// record the touch; pair with Touch.
func (l *Lanes) AtomicAdd(v uint32, lane int, x float64) {
	addr := &l.vals[int(v)<<6+lane]
	for {
		old := atomic.LoadUint64(addr)
		next := math.Float64bits(math.Float64frombits(old) + x)
		if atomic.CompareAndSwapUint64(addr, old, next) {
			return
		}
	}
}

// Touch merges lanes into v's mask with an atomic fetch-OR (a CAS loop: Go
// 1.21 has no atomic Or64), recording v in the touched list exactly once —
// the writer that flips the mask from zero claims the slot. Safe under any
// number of concurrent writers.
func (l *Lanes) Touch(v uint32, lanes uint64) {
	addr := &l.mask[v]
	for {
		old := atomic.LoadUint64(addr)
		next := old | lanes
		if next == old {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, next) {
			if old == 0 {
				l.touched[l.ntouched.Add(1)-1] = v
			}
			return
		}
	}
}

// TouchSerial is Touch for a single-writer phase: the same merge and
// touched-list bookkeeping with plain loads and stores instead of a CAS
// loop. No other goroutine may write the bank concurrently.
func (l *Lanes) TouchSerial(v uint32, lanes uint64) {
	old := l.mask[v]
	next := old | lanes
	if next == old {
		return
	}
	l.mask[v] = next
	if old == 0 {
		l.touched[l.ntouched.Add(1)-1] = v
	}
}

// Touched returns the touched vertices, in unspecified order. The slice
// aliases internal storage: it must not be modified and is valid until the
// next Reset. Must not run concurrently with writers.
func (l *Lanes) Touched() []uint32 { return l.touched[:l.ntouched.Load()] }

// laneClearWalk is the popcount up to which Reset zeroes a vertex's lanes
// one by one instead of clearing its whole 512-byte row; see Reset.
const laneClearWalk = 8

// Reset clears every touched vertex's mask and the slots of the lanes in it
// — the only ones a writer can have dirtied, since every write is paired
// with a Touch of its lane — in O(touched) work using p workers. A batch of
// seeds far apart leaves a touched vertex with one or two live lanes, and
// walking those bits touches one or two of the row's eight cache lines; from
// about eight lanes up the row is mostly dirty and one clear of the whole of
// it is cheaper than the walk (BenchmarkLanesReset). Phase boundary only.
func (l *Lanes) Reset(p int) {
	n := int(l.ntouched.Load())
	touched := l.touched[:n]
	parallel.For(p, n, 256, func(i int) {
		v := touched[i]
		row := l.vals[int(v)<<6 : int(v)<<6+LaneStride]
		if m := l.mask[v]; bits.OnesCount64(m) <= laneClearWalk {
			for ; m != 0; m &= m - 1 {
				row[bits.TrailingZeros64(m)] = 0
			}
		} else {
			clear(row)
		}
		l.mask[v] = 0
	})
	l.ntouched.Store(0)
}
