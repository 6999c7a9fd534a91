// Package parallel implements the shared-memory parallel primitives the
// paper builds on (§2 "Parallel Primitives"): parallel for, prefix sums
// (scan), filter, comparison sort, and integer (radix) sort, plus small
// reductions. They correspond to the PBBS primitives used by the original
// C++/Cilk implementation.
//
// Every function takes an explicit worker count p as its first argument.
// p <= 1 selects a purely sequential code path with no goroutines and no
// atomics, which is what the paper reports as T1; p <= 0 is resolved to
// runtime.GOMAXPROCS(0). Passing p explicitly (rather than reading a global)
// keeps the worker count a per-call decision, which the speedup experiments
// (Figure 9, Figure 10) rely on.
//
// Scheduling is dynamic: loops are split into grain-sized blocks and workers
// pull block indices from an atomic counter. This self-balances skewed work
// distributions such as power-law frontier degrees without any tuning.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultGrain is the block size used when callers pass grain <= 0. It is
// small enough to balance skewed loops and large enough to amortize the
// per-block scheduling atomics.
const DefaultGrain = 1024

// ResolveProcs maps a requested worker count to an effective one:
// p <= 0 means "use all available cores".
func ResolveProcs(p int) int {
	if p <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// Run executes fn(w) on p workers with w in [0, p) and waits for all of
// them. For p <= 1 it calls fn(0) inline.
func Run(p int, fn func(worker int)) {
	p = ResolveProcs(p)
	if p == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p)
	for w := 0; w < p; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// ForRange executes fn over [0, n) in contiguous blocks of about grain
// elements. Blocks are distributed dynamically across p workers. fn must be
// safe to call concurrently on disjoint ranges.
func ForRange(p, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = DefaultGrain
	}
	p = ResolveProcs(p)
	blocks := (n + grain - 1) / grain
	if p == 1 || blocks == 1 {
		fn(0, n)
		return
	}
	if p > blocks {
		p = blocks
	}
	var next atomic.Int64
	Run(p, func(int) {
		for {
			b := int(next.Add(1)) - 1
			if b >= blocks {
				return
			}
			lo := b * grain
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
	})
}

// For executes fn(i) for every i in [0, n), in parallel blocks of about
// grain iterations.
func For(p, n, grain int, fn func(i int)) {
	ForRange(p, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// blockSplit returns the number of blocks to split n elements into for a
// two-pass (scan-style) algorithm on p workers, and the per-block size.
// Using a few blocks per worker smooths imbalance; the sequential
// combine step over block summaries stays negligible.
func blockSplit(p, n int) (blocks, size int) {
	p = ResolveProcs(p)
	blocks = 4 * p
	if blocks > n {
		blocks = n
	}
	if blocks < 1 {
		blocks = 1
	}
	size = (n + blocks - 1) / blocks
	blocks = (n + size - 1) / size
	return
}

// Number covers the element types our reductions and scans operate on.
type Number interface {
	~int | ~int8 | ~int32 | ~int64 | ~uint32 | ~uint64 | ~float64
}

// Sum returns the sum of x using p workers.
func Sum[T Number](p int, x []T) T {
	n := len(x)
	if n == 0 {
		return 0
	}
	p = ResolveProcs(p)
	if p == 1 || n < 2*DefaultGrain {
		var s T
		for _, v := range x {
			s += v
		}
		return s
	}
	blocks, size := blockSplit(p, n)
	partial := make([]T, blocks)
	ForRange(p, n, size, func(lo, hi int) {
		var s T
		for _, v := range x[lo:hi] {
			s += v
		}
		partial[lo/size] = s
	})
	var s T
	for _, v := range partial {
		s += v
	}
	return s
}

// MinIndexFunc returns the index i in [0, n) minimizing f(i), together with
// the minimum value. Ties resolve to the smallest index, so the result is
// deterministic regardless of p. n must be > 0.
func MinIndexFunc(p, n int, f func(i int) float64) (int, float64) {
	if n <= 0 {
		panic("parallel: MinIndexFunc with n <= 0")
	}
	p = ResolveProcs(p)
	if p == 1 || n < 2*DefaultGrain {
		best, bv := 0, f(0)
		for i := 1; i < n; i++ {
			if v := f(i); v < bv {
				best, bv = i, v
			}
		}
		return best, bv
	}
	blocks, size := blockSplit(p, n)
	idx := make([]int, blocks)
	val := make([]float64, blocks)
	ForRange(p, n, size, func(lo, hi int) {
		best, bv := lo, f(lo)
		for i := lo + 1; i < hi; i++ {
			if v := f(i); v < bv {
				best, bv = i, v
			}
		}
		idx[lo/size], val[lo/size] = best, bv
	})
	best, bv := idx[0], val[0]
	for b := 1; b < blocks; b++ {
		// Strict < keeps the smallest index on ties because blocks are in
		// index order.
		if val[b] < bv {
			best, bv = idx[b], val[b]
		}
	}
	return best, bv
}

// ScanInclusive writes the inclusive prefix sums of x into out (out[i] =
// x[0] + ... + x[i]) and returns the total. out may alias x. This is the
// paper's prefix-sum primitive with the addition operator.
func ScanInclusive[T Number](p int, x, out []T) T {
	n := len(x)
	if len(out) != n {
		panic("parallel: ScanInclusive length mismatch")
	}
	if n == 0 {
		return 0
	}
	p = ResolveProcs(p)
	if p == 1 || n < 2*DefaultGrain {
		var s T
		for i, v := range x {
			s += v
			out[i] = s
		}
		return s
	}
	blocks, size := blockSplit(p, n)
	sums := make([]T, blocks)
	ForRange(p, n, size, func(lo, hi int) {
		var s T
		for _, v := range x[lo:hi] {
			s += v
		}
		sums[lo/size] = s
	})
	var total T
	for b := 0; b < blocks; b++ {
		s := sums[b]
		sums[b] = total // exclusive offset of block b
		total += s
	}
	ForRange(p, n, size, func(lo, hi int) {
		s := sums[lo/size]
		for i := lo; i < hi; i++ {
			s += x[i]
			out[i] = s
		}
	})
	return total
}

// ScanExclusive writes exclusive prefix sums of x into out (out[i] =
// x[0] + ... + x[i-1], out[0] = 0) and returns the total. out must not
// alias x unless element writes trailing reads, which the blocked
// implementation guarantees only for out == x; any other overlap is invalid.
func ScanExclusive[T Number](p int, x, out []T) T {
	n := len(x)
	if len(out) != n {
		panic("parallel: ScanExclusive length mismatch")
	}
	if n == 0 {
		return 0
	}
	p = ResolveProcs(p)
	if p == 1 || n < 2*DefaultGrain {
		var s T
		for i, v := range x {
			out[i] = s
			s += v
		}
		return s
	}
	blocks, size := blockSplit(p, n)
	sums := make([]T, blocks)
	ForRange(p, n, size, func(lo, hi int) {
		var s T
		for _, v := range x[lo:hi] {
			s += v
		}
		sums[lo/size] = s
	})
	var total T
	for b := 0; b < blocks; b++ {
		s := sums[b]
		sums[b] = total
		total += s
	}
	ForRange(p, n, size, func(lo, hi int) {
		s := sums[lo/size]
		for i := lo; i < hi; i++ {
			v := x[i]
			out[i] = s
			s += v
		}
	})
	return total
}

// Filter returns the elements of x satisfying pred, preserving their order
// (the paper's filter primitive). The result is freshly allocated.
func Filter[T any](p int, x []T, pred func(T) bool) []T {
	return FilterInto(p, x, nil, pred)
}

// FilterInto is Filter writing into buf's storage when its capacity
// suffices (buf's length is ignored), allocating only otherwise. The
// returned slice holds the kept elements in order; it aliases buf on the
// reuse path, so buf must not overlap x. Callers with a recycled buffer
// (the diffusion engine's frontier ID buffer) use it to keep steady-state
// filters allocation-free.
func FilterInto[T any](p int, x, buf []T, pred func(T) bool) []T {
	n := len(x)
	p = ResolveProcs(p)
	if p == 1 || n < 2*DefaultGrain {
		out := buf[:0]
		if cap(out) == 0 {
			out = make([]T, 0, 16)
		}
		for _, v := range x {
			if pred(v) {
				out = append(out, v)
			}
		}
		return out
	}
	blocks, size := blockSplit(p, n)
	counts := make([]int, blocks)
	ForRange(p, n, size, func(lo, hi int) {
		c := 0
		for _, v := range x[lo:hi] {
			if pred(v) {
				c++
			}
		}
		counts[lo/size] = c
	})
	total := 0
	for b := 0; b < blocks; b++ {
		c := counts[b]
		counts[b] = total
		total += c
	}
	out := buf[:0]
	if cap(out) >= total {
		out = out[:total]
	} else {
		out = make([]T, total)
	}
	ForRange(p, n, size, func(lo, hi int) {
		o := counts[lo/size]
		for _, v := range x[lo:hi] {
			if pred(v) {
				out[o] = v
				o++
			}
		}
	})
	return out
}

// FilterIndex returns the indices i (in increasing order) with pred(i) true.
func FilterIndex(p, n int, pred func(i int) bool) []int {
	return FilterIndexInto(p, n, nil, pred)
}

// FilterIndexInto is FilterIndex writing its output into buf when it has
// the capacity (allocating only when it does not); the returned slice may
// alias buf. It is the allocation-free path for callers that recycle their
// index buffers across runs (the pooled sort-based sweep).
func FilterIndexInto(p, n int, buf []int, pred func(i int) bool) []int {
	p = ResolveProcs(p)
	if p == 1 || n < 2*DefaultGrain {
		out := buf[:0]
		for i := 0; i < n; i++ {
			if pred(i) {
				out = append(out, i)
			}
		}
		return out
	}
	blocks, size := blockSplit(p, n)
	counts := make([]int, blocks)
	ForRange(p, n, size, func(lo, hi int) {
		c := 0
		for i := lo; i < hi; i++ {
			if pred(i) {
				c++
			}
		}
		counts[lo/size] = c
	})
	total := 0
	for b := 0; b < blocks; b++ {
		c := counts[b]
		counts[b] = total
		total += c
	}
	out := buf[:0]
	if cap(out) >= total {
		out = out[:total]
	} else {
		out = make([]int, total)
	}
	ForRange(p, n, size, func(lo, hi int) {
		o := counts[lo/size]
		for i := lo; i < hi; i++ {
			if pred(i) {
				out[o] = i
				o++
			}
		}
	})
	return out
}
