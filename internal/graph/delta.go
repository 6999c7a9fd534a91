package graph

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"parcluster/internal/parallel"
)

// This file makes graphs mutable without giving up the immutability every
// query-side layer leans on. A Versioned graph is a base graph plus an
// append-only delta log of edge inserts and deletes. Queries never see the
// log: they pin an epoch-stamped Snapshot and keep it for their whole
// lifetime, while writers keep appending and a compactor periodically
// folds the log into a fresh base. A snapshot is a view, not a copy: the
// base, the log folded into sorted per-vertex insert/delete patches (last
// write per pair wins, diffed against the base), the view's n+1 offsets
// and a bitmap of the vertices a patch touches. An untouched list is read
// from the base, a touched one is merged with its patch, and either lands
// in the caller's buffer, so taking a snapshot costs O(Δ log Δ + n) for Δ
// pending records and copies no adjacency. Each epoch's view resumes the
// fold of the one before it over the same base, so a batch is folded and
// diffed once. Compact is the only place a whole graph is flattened, and it
// flattens outside the mutex. The epoch advances once per applied batch, so
// an epoch uniquely identifies an edge set and is safe to use as a
// cache-key component; compaction rebases storage without changing the
// edge set and therefore does not advance it.

// deltaRec is one logged edge mutation. u < v always (undirected edges are
// canonicalized at Apply time); del marks a deletion.
type deltaRec struct {
	u, v uint32
	del  bool
}

// Versioned is a mutable graph: an immutable base graph, an append-only
// delta log, and a lazily built view of base+log. All methods are safe for
// concurrent use. Snapshots returned by Snapshot are pinned and must be
// released; the pin balance is observable via Pins for leak detection.
type Versioned struct {
	mu      sync.Mutex
	compact sync.Mutex // serializes Compact, which flattens without mu
	procs   int
	base    Graph
	n       int // current universe size; >= base.NumVertices()
	log     []deltaRec
	version uint64
	snap    *Snapshot // cached view of the current version, or nil
	commit  CommitFunc

	edges, deletes, batches, compactions uint64

	pins atomic.Int64 // outstanding Snapshot pins across all epochs
}

// CommitFunc is the durable-commit hook a registry installs with SetCommit.
// Apply calls it after a batch validates but before the batch mutates
// anything: ins and del are canonicalized (u < v) copies in Apply order,
// vertices is the resolved post-batch universe size, and epoch is the
// version the batch will produce. Returning an error rejects the whole
// batch — the epoch does not advance and no record is logged — so the hook
// is the write-ahead commit point: a batch is visible in memory only if it
// is durable first. The hook runs under the Versioned mutex; it must not
// call back into the same Versioned.
type CommitFunc func(ins, del []Edge, vertices int, epoch uint64) error

// ErrCommit wraps CommitFunc failures surfaced by Apply, so callers can
// distinguish an invalid batch (caller error) from a durability failure
// (server error).
var ErrCommit = errors.New("graph: durable commit failed")

// SetCommit installs (or clears, with nil) the durable-commit hook. Install
// it before the graph is shared with writers: the hook is consulted under
// the same mutex Apply holds, but there is no ordering guarantee for
// batches already in flight when SetCommit runs.
func (v *Versioned) SetCommit(fn CommitFunc) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.commit = fn
}

// VersionedStats is a point-in-time counter snapshot for stats endpoints.
type VersionedStats struct {
	Edges       uint64 // insert records accepted across all batches
	Deletes     uint64 // delete records accepted across all batches
	Batches     uint64 // Apply calls that were accepted
	Compactions uint64 // delta-log folds into a fresh base CSR
	Epoch       uint64 // current version
	Pending     int    // delta records not yet compacted
	Vertices    int    // current universe size
	BaseEdges   uint64 // edge count of the base (exact when Pending == 0)
	Packed      bool   // the base decodes its lists (a .lgz image)
}

// NewVersioned wraps base in a mutable, epoch-versioned graph. procs is the
// worker count Compact flattens with (<= 0 = all cores); Compact may
// override it per call.
func NewVersioned(procs int, base Graph) *Versioned {
	return &Versioned{procs: procs, base: base, n: base.NumVertices()}
}

// NewVersionedAt is NewVersioned starting at a non-zero epoch: the
// WAL-recovery constructor, where base is a checkpoint snapshot that
// already embodies every batch up to and including epoch, and the batches
// after it are replayed through Apply.
func NewVersionedAt(procs int, base Graph, epoch uint64) *Versioned {
	return &Versioned{procs: procs, base: base, n: base.NumVertices(), version: epoch}
}

// maxVertexID bounds the universe so every vertex fits in uint32.
const maxVertexID = math.MaxUint32

// Apply validates and appends one batch of edge mutations, returning the
// stats snapshot of the state the batch produced — Epoch, Pending and
// Vertices from the same critical section, so concurrent later batches or
// compactions cannot leak into the response describing this one. The batch
// is atomic: any invalid record (self loop, endpoint outside the universe)
// rejects the whole batch and mutates nothing, as does a durable-commit
// hook failure (wrapped in ErrCommit). vertices > 0 grows the universe to
// that size first, so inserts may reference brand-new vertices; the
// universe never shrinks. Deleting an absent edge and inserting a present
// one are no-ops in the materialized graph (last write per pair wins),
// keeping batches idempotent. Work is O(len(ins)+len(del)).
func (v *Versioned) Apply(ins, del []Edge, vertices int) (VersionedStats, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	n := v.n
	if vertices > n {
		if vertices > maxVertexID {
			return v.statsLocked(), fmt.Errorf("graph: vertices %d exceeds max universe %d", vertices, maxVertexID)
		}
		n = vertices
	}
	if err := validateBatch(ins, n); err != nil {
		return v.statsLocked(), err
	}
	if err := validateBatch(del, n); err != nil {
		return v.statsLocked(), err
	}
	if len(ins) == 0 && len(del) == 0 && n == v.n {
		return v.statsLocked(), nil // nothing changes; don't advance the epoch
	}
	if v.commit != nil {
		if err := v.commit(canonBatch(ins), canonBatch(del), n, v.version+1); err != nil {
			return v.statsLocked(), fmt.Errorf("%w: %w", ErrCommit, err)
		}
	}
	for _, e := range ins {
		v.log = append(v.log, canonRec(e, false))
	}
	for _, e := range del {
		v.log = append(v.log, canonRec(e, true))
	}
	v.n = n
	v.version++
	v.batches++
	v.edges += uint64(len(ins))
	v.deletes += uint64(len(del))
	return v.statsLocked(), nil
}

func validateBatch(edges []Edge, n int) error {
	for _, e := range edges {
		if e.U == e.V {
			return fmt.Errorf("graph: self loop %d-%d rejected", e.U, e.V)
		}
		if int(e.U) >= n || int(e.V) >= n {
			return fmt.Errorf("graph: edge %d-%d outside universe of %d vertices", e.U, e.V, n)
		}
	}
	return nil
}

func canonRec(e Edge, del bool) deltaRec {
	u, w := e.U, e.V
	if u > w {
		u, w = w, u
	}
	return deltaRec{u: u, v: w, del: del}
}

// canonBatch returns a canonicalized (u < v) copy of edges for the commit
// hook, so what the hook persists is byte-for-byte what a replay re-applies.
func canonBatch(edges []Edge) []Edge {
	if len(edges) == 0 {
		return nil
	}
	out := make([]Edge, len(edges))
	for i, e := range edges {
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		out[i] = e
	}
	return out
}

// Snapshot pins and returns the view of the current epoch: an immutable
// graph whose every method answers exactly as FromEdges of the same edge
// set would. With no pending change it is the base itself. The view is
// built at most once per epoch (the first Snapshot after an Apply folds the
// records that arrived since the last view; later ones share it). The
// caller must call Release exactly once when done — typically at the end
// of a request.
func (v *Versioned) Snapshot() *Snapshot {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.snap == nil || v.snap.epoch != v.version {
		p := v.snap.resume(v.base, v.log)
		v.snap = &Snapshot{g: p.over(v.base, v.n), base: v.base, patch: p,
			epoch: v.version, pending: len(v.log), vg: v}
	}
	v.snap.refs.Add(1)
	v.pins.Add(1)
	return v.snap
}

// Compact folds every pending delta into a fresh heap CSR base and
// truncates the log. The edge set — and therefore the epoch — is
// unchanged: compaction is a storage rebase, invisible to queries except
// that later snapshots read a flat CSR instead of base+patch. It captures
// the base and log under the mutex, flattens without it, and installs the
// result under it again; records applied meanwhile stay as the new log.
// Compactions are serialized, and views pinned earlier do not change.
// Returns whether any folding happened and the current epoch. procs <= 0
// uses the constructor's worker count.
func (v *Versioned) Compact(procs int) (bool, uint64) {
	v.compact.Lock()
	defer v.compact.Unlock()
	v.mu.Lock()
	prev, base, log, n, epoch := v.snap, v.base, v.log, v.n, v.version
	v.mu.Unlock()
	if len(log) == 0 && n == base.NumVertices() {
		return false, epoch
	}
	if procs <= 0 {
		procs = v.procs
	}
	flat := newView(base, prev.resume(base, log), n).flatten(procs)

	v.mu.Lock()
	defer v.mu.Unlock()
	v.base = flat
	v.log = slices.Clone(v.log[len(log):])
	v.compactions++
	v.snap = nil // the next view folds the remaining log over the new base
	return true, v.version
}

// Pending returns the number of delta records not yet compacted.
func (v *Versioned) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.log)
}

// Epoch returns the current version.
func (v *Versioned) Epoch() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.version
}

// Pins returns the number of outstanding snapshot pins across every epoch.
// A quiescent Versioned has zero; anything else is a leak.
func (v *Versioned) Pins() int64 { return v.pins.Load() }

// Stats returns a point-in-time copy of the mutation counters.
func (v *Versioned) Stats() VersionedStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.statsLocked()
}

// statsLocked builds the stats snapshot. Callers hold v.mu.
func (v *Versioned) statsLocked() VersionedStats {
	return VersionedStats{
		Edges:       v.edges,
		Deletes:     v.deletes,
		Batches:     v.batches,
		Compactions: v.compactions,
		Epoch:       v.version,
		Pending:     len(v.log),
		Vertices:    v.n,
		BaseEdges:   v.base.NumEdges(),
		Packed:      NeedsDecode(v.base),
	}
}

// Snapshot is a pinned, immutable view of one epoch. Its graph answers
// exactly as the canonical CSR of its edge set (sorted, deduplicated,
// symmetric, loop-free) regardless of how many deltas were pending, so
// kernels run on it unchanged and produce bit-identical results to a
// from-scratch build.
type Snapshot struct {
	g       Graph
	base    Graph // the base patch is diffed against
	patch   patch // log[:pending] folded over base
	epoch   uint64
	pending int
	vg      *Versioned
	refs    atomic.Int64
}

// Graph returns the snapshot's immutable graph view.
func (s *Snapshot) Graph() Graph { return s.g }

// Epoch returns the version this snapshot was taken at.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Pending returns how many delta records the view folded in on top of the
// then-current base (0 right after a compaction).
func (s *Snapshot) Pending() int { return s.pending }

// Release drops one pin. Each Snapshot call must be balanced by exactly one
// Release; over-releasing panics, like workspace double-release, because it
// means some other request's view could be torn down under it.
func (s *Snapshot) Release() {
	if s.refs.Add(-1) < 0 {
		panic("graph: snapshot released more times than acquired")
	}
	s.vg.pins.Add(-1)
}

// resume returns the patch of log over base. When s is a snapshot of a
// prefix of log over the same base, only the records after that prefix are
// folded onto s's patch; otherwise (nil s, or a base a compaction replaced)
// the whole log is.
func (s *Snapshot) resume(base Graph, log []deltaRec) patch {
	if s == nil || s.base != base {
		return patch{}.fold(base, log)
	}
	return s.patch.fold(base, log[s.pending:])
}

// patch is an edge set as its difference from a base graph: directed
// half-edges packed u<<32|w, both directions of every changed pair, sorted
// so each vertex's entries are one run. ins holds only half-edges the base
// lacks and del only half-edges it has.
type patch struct {
	ins, del []uint64
}

// fold returns p with recs applied in order: the last record of each pair
// wins, and the pair's final membership is diffed against base. p is not
// modified. O(len(recs) log len(recs) + len(p)).
func (p patch) fold(base Graph, recs []deltaRec) patch {
	if len(recs) == 0 {
		return p
	}
	final := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		final[uint64(r.u)<<32|uint64(r.v)] = !r.del
	}
	baseN := base.NumVertices()
	var drop, ins, del []uint64
	for key, present := range final {
		u, w := uint32(key>>32), uint32(key)
		halves := [2]uint64{key, uint64(w)<<32 | uint64(u)}
		drop = append(drop, halves[:]...)
		switch inBase := int(w) < baseN && base.HasEdge(u, w); {
		case present && !inBase:
			ins = append(ins, halves[:]...)
		case !present && inBase:
			del = append(del, halves[:]...)
		}
	}
	slices.Sort(drop)
	slices.Sort(ins)
	slices.Sort(del)
	return patch{ins: rebase(p.ins, drop, ins), del: rebase(p.del, drop, del)}
}

// rebase returns the sorted keys of old that are not in drop, merged with
// add (add ⊆ drop, so nothing is listed twice). All three are sorted; old
// is copied in runs between the keys of drop, so the work is a memmove of
// old plus a binary search per key of drop.
func rebase(old, drop, add []uint64) []uint64 {
	if len(old) == 0 {
		return add
	}
	out := make([]uint64, 0, len(old)+len(add))
	pos := 0
	for _, k := range drop {
		i, found := slices.BinarySearch(old[pos:], k)
		out = append(out, old[pos:pos+i]...)
		if pos += i; found {
			pos++
		}
		if len(add) > 0 && add[0] == k {
			out = append(out, k)
			add = add[1:]
		}
	}
	return append(out, old[pos:]...)
}

// over returns the graph p makes of base on n vertices: base itself when
// p changes nothing, else a view.
func (p patch) over(base Graph, n int) Graph {
	if len(p.ins) == 0 && len(p.del) == 0 && n == base.NumVertices() {
		return base
	}
	return newView(base, p, n)
}

// view is one epoch of a Versioned graph read through its base: the base,
// the epoch's patch over it, the view's own offsets, and a bitmap of the
// vertices the patch touches. Every slice a view returns lives in the
// caller's buffer or in memory the view allocated: a heap base's list is
// copied, never aliased, because callers keep the returned slice as their
// next buffer (ns := g.NeighborsInto(buf, v); buf = ns) and a later merge
// into it would otherwise write into the base.
type view struct {
	base   Graph
	heap   *CSR // base, when it is a heap CSR
	baseN  int
	p      patch
	offs   []uint64
	m      uint64
	maxDeg uint32
	// touched has bit v set when the patch holds entries of v, and rank[i]
	// counts the touched vertices below word i, so the number t of touched
	// vertices below v is one popcount away. at[2t] and at[2t+1] count the
	// ins and del entries of those t vertices: offs[v] less the difference
	// is v's offset in the base, and a touched v's runs are
	// p.ins[at[2t]:at[2t+2]] and p.del[at[2t+1]:at[2t+3]].
	touched []uint64
	rank    []uint32
	at      []uint32
}

// newView builds the view of base+p on n vertices in O(n + len(p)) tight
// loops: the patch's sources set the touched bits, the bits' popcounts
// number the touched vertices, each patch entry counts towards its
// vertex's pair in at, and the offsets are the base's degrees plus each
// touched vertex's counts, prefix-summed.
func newView(base Graph, p patch, n int) *view {
	words := (n + 63) / 64
	touched, rank := make([]uint64, words), make([]uint32, words)
	for _, side := range [2][]uint64{p.ins, p.del} {
		for _, k := range side {
			touched[k>>38] |= 1 << (k >> 32 % 64)
		}
	}
	var nt uint32
	for w, b := range touched {
		rank[w] = nt
		nt += uint32(bits.OnesCount64(b))
	}
	heap, _ := base.(*CSR)
	g := &view{base: base, heap: heap, baseN: base.NumVertices(), p: p,
		offs: make([]uint64, n+1), touched: touched, rank: rank, at: make([]uint32, 2*nt+2)}
	for side, keys := range [2][]uint64{p.ins, p.del} {
		for _, k := range keys {
			t, _ := g.locate(uint32(k >> 32))
			g.at[2*t+2+side]++
		}
	}
	for i := 2; i < len(g.at); i++ {
		g.at[i] += g.at[i-2] // counts to the starts of the next vertex's runs
	}
	// Degrees first, base then patch, then their prefix sums in place.
	offs, bo := g.offs, base.Offsets()
	for v := 0; v < min(n, g.baseN); v++ {
		offs[v] = bo[v+1] - bo[v]
	}
	t := 0
	for w, b := range touched {
		for ; b != 0; b &= b - 1 {
			at := g.at[2*t : 2*t+4]
			offs[w*64+bits.TrailingZeros64(b)] += uint64(at[2]-at[0]) - uint64(at[3]-at[1])
			t++
		}
	}
	var o, maxDeg uint64
	for v, d := range offs[:n] {
		offs[v] = o
		o += d
		maxDeg = max(maxDeg, d)
	}
	offs[n], g.m, g.maxDeg = o, o/2, uint32(maxDeg)
	return g
}

// locate returns how many touched vertices lie below v, and whether v is
// touched.
func (g *view) locate(v uint32) (t int, touched bool) {
	w, bit := g.touched[v/64], uint64(1)<<(v%64)
	return int(g.rank[v/64]) + bits.OnesCount64(w&(bit-1)), w&bit != 0
}

// heapAt returns v's offset in a heap base (v <= baseN), where t touched
// vertices lie below v. It is read off the view's own offsets, so that a
// read touches one offset array, as on a flat CSR: offs[v] exceeds it by
// the ins entries of those t vertices, less their del entries.
func (g *view) heapAt(v uint32, t int) uint64 {
	return g.offs[v] - uint64(g.at[2*t]) + uint64(g.at[2*t+1])
}

// runs returns the patch entries of the touched vertex with t touched
// vertices below it.
func (g *view) runs(t int) (ins, del []uint64) {
	at := g.at[2*t : 2*t+4]
	return g.p.ins[at[0]:at[2]], g.p.del[at[1]:at[3]]
}

// listInto writes v's list into dst, which has length d(v) > 0. It reads
// base storage and never writes it.
func (g *view) listInto(dst []uint32, v uint32) {
	t, touched := g.locate(v)
	if !touched {
		if g.heap != nil {
			lo := g.heapAt(v, t)
			copy(dst, g.heap.adj[lo:lo+uint64(len(dst))])
		} else if ns := g.base.NeighborsInto(dst[:0], v); &ns[0] != &dst[0] {
			copy(dst, ns)
		}
		return
	}
	var bs []uint32
	var bp *[]uint32
	if int(v) < g.baseN {
		if g.heap != nil {
			bs = g.heap.adj[g.heapAt(v, t):g.heapAt(v+1, t+1)]
		} else {
			bp = decodeBufs.Get().(*[]uint32)
			bs = g.base.NeighborsInto(*bp, v)
		}
	}
	// Copy the base list in runs between patch entries: an insert goes in
	// before the first larger neighbour, a delete (always in bs) is skipped.
	ins, del := g.runs(t)
	o, pos := 0, 0
	for len(ins) > 0 || len(del) > 0 {
		var k int
		if len(del) == 0 || len(ins) > 0 && uint32(ins[0]) < uint32(del[0]) {
			k, _ = slices.BinarySearch(bs[pos:], uint32(ins[0]))
			o += copy(dst[o:], bs[pos:pos+k])
			dst[o] = uint32(ins[0])
			o++
			ins = ins[1:]
			pos += k
		} else {
			k, _ = slices.BinarySearch(bs[pos:], uint32(del[0]))
			o += copy(dst[o:], bs[pos:pos+k])
			del = del[1:]
			pos += k + 1
		}
	}
	copy(dst[o:], bs[pos:])
	ReleaseDecodeBuf(bp, bs)
}

// flatten materializes the view as a heap CSR with p workers. The CSR
// shares the view's offsets; both are immutable.
func (g *view) flatten(p int) *CSR {
	n := g.NumVertices()
	adj := make([]uint32, g.offs[n])
	parallel.For(parallel.ResolveProcs(p), n, 64, func(v int) {
		if lo, hi := g.offs[v], g.offs[v+1]; hi > lo {
			g.listInto(adj[lo:hi:hi], uint32(v))
		}
	})
	return &CSR{offsets: g.offs, adj: adj, m: g.m, maxDeg: g.maxDeg}
}

// NumVertices returns n.
func (g *view) NumVertices() int { return len(g.offs) - 1 }

// NumEdges returns m.
func (g *view) NumEdges() uint64 { return g.m }

// TotalVolume returns 2m.
func (g *view) TotalVolume() uint64 { return 2 * g.m }

// Degree returns d(v).
func (g *view) Degree(v uint32) uint32 { return uint32(g.offs[v+1] - g.offs[v]) }

// MaxDegree returns the largest degree, computed when the view is built.
func (g *view) MaxDegree() uint32 { return g.maxDeg }

// Offsets returns the view's edge-offset array; see Graph.
func (g *view) Offsets() []uint64 { return g.offs }

// Neighbors returns v's list as a fresh allocation.
func (g *view) Neighbors(v uint32) []uint32 { return g.NeighborsInto(nil, v) }

// NeighborsInto writes v's list into buf (grown if needed) and returns it.
func (g *view) NeighborsInto(buf []uint32, v uint32) []uint32 {
	d := int(g.Degree(v))
	if cap(buf) < d {
		buf = make([]uint32, d, max(d, 2*cap(buf)))
	}
	buf = buf[:d]
	if d > 0 {
		g.listInto(buf, v)
	}
	return buf
}

// NeighborsTail returns v's list from index j on for an untouched vertex
// (decoded by a packed base from the covering sub-block, copied from a
// heap base from j), and the whole merged list for a touched one.
func (g *view) NeighborsTail(buf []uint32, v uint32, j int) ([]uint32, int) {
	t, touched := g.locate(v)
	d := int(g.Degree(v))
	if d == 0 || touched {
		return g.NeighborsInto(buf, v), 0
	}
	if g.heap == nil {
		return g.base.NeighborsTail(buf, v, j)
	}
	if cap(buf) < d-j {
		buf = make([]uint32, d-j, max(d-j, 2*cap(buf)))
	}
	buf = buf[:d-j]
	lo := g.heapAt(v, t) + uint64(j)
	copy(buf, g.heap.adj[lo:lo+uint64(d-j)])
	return buf, j
}

// NeighborAt returns the i-th neighbor of v: from the base for an untouched
// vertex, from the merged list (in pooled scratch) for a touched one.
func (g *view) NeighborAt(v uint32, i uint32) uint32 {
	if _, touched := g.locate(v); !touched {
		return g.base.NeighborAt(v, i)
	}
	bp := decodeBufs.Get().(*[]uint32)
	ns := g.NeighborsInto(*bp, v)
	w := ns[i]
	ReleaseDecodeBuf(bp, ns)
	return w
}

// HasEdge reports whether {u, w} is an edge: the patch decides a pair it
// holds, the base every other.
func (g *view) HasEdge(u, w uint32) bool {
	if t, touched := g.locate(u); touched {
		ins, del := g.runs(t)
		key := uint64(u)<<32 | uint64(w)
		if _, ok := slices.BinarySearch(ins, key); ok {
			return true
		}
		if _, ok := slices.BinarySearch(del, key); ok {
			return false
		}
	}
	return int(u) < g.baseN && int(w) < g.baseN && g.base.HasEdge(u, w)
}

// Volume returns vol(S); see Graph.
func (g *view) Volume(S []uint32) uint64 { return volumeOf(g, S) }

// Boundary returns |∂(S)|; see Graph.
func (g *view) Boundary(S []uint32) uint64 { return boundaryOf(g, S) }

// Conductance returns φ(S); see Graph.
func (g *view) Conductance(S []uint32) float64 { return conductanceOf(g, S) }
