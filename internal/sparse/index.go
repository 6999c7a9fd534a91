package sparse

import (
	"math"
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Index is the vertex → slot table one diffusion run shares between all of
// its vectors. Slots are handed out 0, 1, 2, ... in creation order, and
// everything a run keeps per touched vertex is a plain slot-indexed column
// beside the table: the vertex itself, a uint32 the owner may fill (the
// engine caches the degree there), a round stamp, and any number of float64
// columns — one per vector. So a vertex is hashed once per edge, however
// many vectors the run updates for it, and the columns are read in slot
// order, not in hash order.
//
// Rounds: NextRound starts a round, and Touch records a slot in the
// round's touched list the first time the round touches it, which the stamp
// makes exact: a slot is touched this round iff its stamp equals Round. The
// lists of the current and the previous round are kept (List), in
// first-touch order when one goroutine touched them.
//
// The table is open addressing with linear probing at no more than 50%
// load; an entry packs vertex+1 and slot+1 into one word, so zero is a free
// position and one load answers a probe. Capacity is reserved up front from
// the round's bound (Reserve) for a phase several workers share, where a
// slot is claimed with a CAS on its table entry and numbered by an atomic
// counter (Claim, TouchAtomic), and a claim past it panics. A phase one
// goroutine runs (Slot, Touch and plain column stores) grows the index when
// it fills instead, so its capacity follows the support, not a bound.
//
// Reset clears the table and the columns in O(entries). Construct with
// NewIndex; the zero value is not usable.
type Index struct {
	tab   []uint64 // (vertex+1) | (slot+1)<<32; 0 = free; slot part 0 = not yet published
	mask  uint32
	shift uint32 // 32 - log2(len(tab)): home positions are a product's top bits
	n     uint32 // slots handed out; atomic under Claim

	// Slot-indexed columns, each of length Cap.
	verts []uint32 // slot → vertex
	pos   []uint32 // slot → its table position, for Reset
	aux   []uint32 // owner's column; zero after Reset
	stamp []uint32 // the round that last touched the slot
	cols  [][]float64

	round   uint32
	touched [2][]uint32 // the touched lists of the rounds of each parity
	ntouch  [2]uint32   // their lengths; atomic under TouchAtomic
}

const indexOverflowMsg = "sparse: Index overflow; Reserve was not called with a sufficient bound"

// unpublished marks an entry whose claimer found the index full: readers
// waiting for its slot panic instead of waiting forever.
const unpublished = math.MaxUint32

// NewIndex returns an empty index with room for at least capacity slots.
func NewIndex(capacity int) *Index {
	x := &Index{round: 1}
	x.grow(capacity)
	return x
}

// Len returns the number of slots handed out. Safe to call concurrently;
// exact once all concurrent claims have completed.
func (x *Index) Len() int { return int(atomic.LoadUint32(&x.n)) }

// Cap returns the number of slots the index holds without growing.
func (x *Index) Cap() int { return len(x.verts) }

// Bytes returns the size of the table and its columns.
func (x *Index) Bytes() int64 {
	return 8*int64(len(x.tab)) + 4*int64(len(x.verts))*6 + 8*int64(len(x.verts)*len(x.cols))
}

// Vertices returns the slot → vertex column (length Cap; past Len its
// entries are unspecified). The slice must not be modified.
func (x *Index) Vertices() []uint32 { return x.verts }

// Aux returns the owner's uint32 column (length Cap). It is all zero after
// Reset and keeps its values across Reserve.
func (x *Index) Aux() []uint32 { return x.aux }

// Col returns float64 column i (length Cap), allocating it on first use.
// Columns are all zero after Reset and keep their values across Reserve;
// a Reserve that grows the index reallocates them, so callers fetch them
// again after one.
func (x *Index) Col(i int) []float64 {
	for len(x.cols) <= i {
		x.cols = append(x.cols, nil)
	}
	if x.cols[i] == nil {
		x.cols[i] = make([]float64, len(x.verts))
	}
	return x.cols[i]
}

// home returns v's home position: Fibonacci hashing, the top bits of a
// product, which is one multiply and one shift on the probe every edge pays.
func (x *Index) home(v uint32) uint32 { return v * 0x9E3779B1 >> x.shift }

// Find returns v's slot, if v has one.
func (x *Index) Find(v uint32) (slot uint32, ok bool) {
	key := uint64(v) + 1
	for i := x.home(v); ; i = (i + 1) & x.mask {
		switch e := x.tab[i]; {
		case e == 0:
			return 0, false
		case e&math.MaxUint32 == key:
			return uint32(e>>32) - 1, true
		}
	}
}

// Slot returns v's slot, claiming the next one if v has none, in a phase in
// which one goroutine has the index to itself. A claim that finds the index
// full grows it first, as Reserve would: the caller knows by the slot
// number, Cap of before, and fetches its columns again.
func (x *Index) Slot(v uint32) uint32 {
	key := uint64(v) + 1
	for i := x.home(v); ; i = (i + 1) & x.mask {
		switch e := x.tab[i]; {
		case e == 0:
			s := x.n
			if int(s) == len(x.verts) {
				x.grow(2 * int(s))
				return x.Slot(v)
			}
			x.n++
			x.tab[i] = key | uint64(s+1)<<32
			x.verts[s], x.pos[s] = v, i
			return s
		case e&math.MaxUint32 == key:
			return uint32(e>>32) - 1
		}
	}
}

// Spread adds share into float column c at the slot of every vertex of ws,
// touching each, in a phase one goroutine runs: the inner loop of a push,
// one probe per vertex, claiming (and growing the index) as Slot does.
func (x *Index) Spread(ws []uint32, c int, share float64) {
	p := x.round & 1
	col, stamp, touched, nt := x.cols[c], x.stamp, x.touched[p], x.ntouch[p]
	for _, w := range ws {
		e := x.tab[x.home(w)]
		s := uint32(e>>32) - 1
		if uint32(e) != w+1 {
			x.ntouch[p] = nt // a growth copies the list
			if s = x.Slot(w); int(s) == len(col) {
				col, stamp, touched = x.cols[c], x.stamp, x.touched[p]
			}
		}
		if stamp[s] != x.round {
			stamp[s] = x.round
			touched[nt] = s
			nt++
		}
		col[s] += share
	}
	x.ntouch[p] = nt
}

// Claim is Slot for a phase several goroutines share: the table entry is
// claimed with a CAS, the slot numbered by an atomic counter, and a reader
// that finds v claimed but not yet numbered waits for the number.
func (x *Index) Claim(v uint32) uint32 {
	key := uint64(v) + 1
	i := x.home(v)
	// The load is at most 50%, so the probe ends at v or at a free entry; a
	// lost CAS re-reads the same entry.
	for {
		e := atomic.LoadUint64(&x.tab[i])
		if e == 0 {
			if !atomic.CompareAndSwapUint64(&x.tab[i], 0, key) {
				continue
			}
			s := atomic.AddUint32(&x.n, 1) - 1
			if int(s) >= len(x.verts) {
				atomic.StoreUint64(&x.tab[i], key|uint64(unpublished)<<32)
				panic(indexOverflowMsg)
			}
			x.verts[s], x.pos[s] = v, i
			atomic.StoreUint64(&x.tab[i], key|uint64(s+1)<<32)
			return s
		}
		if e&math.MaxUint32 == key {
			for e>>32 == 0 {
				runtime.Gosched() // the claimer is between its two stores
				e = atomic.LoadUint64(&x.tab[i])
			}
			if e>>32 == unpublished {
				panic(indexOverflowMsg)
			}
			return uint32(e>>32) - 1
		}
		i = (i + 1) & x.mask
	}
}

// Reserve grows the index so that extra more slots fit, keeping every
// slot's number and column values, and reports whether it reallocated
// (phase boundary only).
func (x *Index) Reserve(extra int) bool {
	if need := x.Len() + extra; need > len(x.verts) {
		x.grow(need)
		return true
	}
	return false
}

// grow reallocates the table and the columns for at least capacity slots
// and rehashes the slots handed out.
func (x *Index) grow(capacity int) {
	size := tableSize(capacity)
	n := x.Len()
	x.tab = make([]uint64, size)
	x.mask = uint32(size - 1)
	x.shift = uint32(32 - bits.TrailingZeros(uint(size)))
	regrow := func(s []uint32, keep int) []uint32 {
		out := make([]uint32, size/2)
		copy(out, s[:keep])
		return out
	}
	x.verts = regrow(x.verts, n)
	x.pos = regrow(x.pos, 0)
	x.aux = regrow(x.aux, n)
	x.stamp = regrow(x.stamp, n)
	for p := range x.touched {
		x.touched[p] = regrow(x.touched[p], int(x.ntouch[p]))
	}
	for i, c := range x.cols {
		if c != nil {
			x.cols[i] = make([]float64, size/2)
			copy(x.cols[i], c[:n])
		}
	}
	for s, v := range x.verts[:n] {
		i := x.home(v)
		for x.tab[i] != 0 {
			i = (i + 1) & x.mask
		}
		x.tab[i] = uint64(v) + 1 | uint64(s+1)<<32
		x.pos[s] = i
	}
}

// Reset empties the index — table, slots, owner's column, float columns and
// touched lists — in O(entries), keeping its capacity (phase boundary
// only). Stamps are not cleared: rounds keep counting across a Reset, so an
// old stamp never equals a later round.
func (x *Index) Reset() {
	n := x.Len()
	for _, i := range x.pos[:n] {
		x.tab[i] = 0
	}
	clear(x.aux[:n])
	for _, c := range x.cols {
		if c != nil {
			clear(c[:n])
		}
	}
	x.n = 0
	x.ntouch = [2]uint32{}
	x.NextRound() // no stamp left reads as touched
}

// NextRound starts a round with an empty touched list. The previous
// round's list stays readable through List (phase boundary only).
func (x *Index) NextRound() {
	if x.round++; x.round == 0 {
		// Wrapped after 2^32 rounds: forget every stamp.
		clear(x.stamp)
		x.round = 1
	}
	x.ntouch[x.round&1] = 0
}

// Round returns the current round's number; it is never 0.
func (x *Index) Round() uint32 { return x.round }

// Touched reports whether slot s was touched this round.
func (x *Index) Touched(s uint32) bool { return atomic.LoadUint32(&x.stamp[s]) == x.round }

// Touch records slot s as touched this round, in a phase one goroutine
// runs, and reports whether this call was its first touch.
func (x *Index) Touch(s uint32) bool {
	if x.stamp[s] == x.round {
		return false
	}
	x.stamp[s] = x.round
	p := x.round & 1
	x.touched[p][x.ntouch[p]] = s
	x.ntouch[p]++
	return true
}

// TouchAtomic is Touch for a phase several goroutines share.
func (x *Index) TouchAtomic(s uint32) bool {
	old := atomic.LoadUint32(&x.stamp[s])
	if old == x.round || !atomic.CompareAndSwapUint32(&x.stamp[s], old, x.round) {
		return false
	}
	p := x.round & 1
	x.touched[p][atomic.AddUint32(&x.ntouch[p], 1)-1] = s
	return true
}

// List returns the touched list of round r, which must be the current or
// the previous round. The slice must not be modified.
func (x *Index) List(r uint32) []uint32 {
	if r != x.round && r+1 != x.round {
		panic("sparse: Index.List of a round that is neither the current nor the previous one")
	}
	return x.touched[r&1][:atomic.LoadUint32(&x.ntouch[r&1])]
}

// AtomicAdd adds delta to *p with a CAS loop on its bit image: the
// fetch-and-add of a column shared by several writers.
func AtomicAdd(p *float64, delta float64) {
	addr := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// View returns column col as a Source keyed by vertex, for Snapshot and
// PromoteToDense: the slots of list, in list order, or with a nil list
// every slot whose value is nonzero, in slot order.
func (x *Index) View(col []float64, list []uint32) Source {
	return indexView{x.verts[:x.Len()], col, list}
}

type indexView struct {
	verts []uint32
	col   []float64
	list  []uint32
}

func (v indexView) Len() int {
	if v.list != nil {
		return len(v.list)
	}
	n := 0
	for _, x := range v.col[:len(v.verts)] {
		if x != 0 {
			n++
		}
	}
	return n
}

func (v indexView) ForEach(fn func(k uint32, x float64)) {
	if v.list != nil {
		for _, s := range v.list {
			fn(v.verts[s], v.col[s])
		}
		return
	}
	for s, x := range v.col[:len(v.verts)] {
		if x != 0 {
			fn(v.verts[s], x)
		}
	}
}

func (indexView) listsKeysOnce() {}
