package parcluster

import (
	"fmt"
	"io"
	"sort"

	"parcluster/internal/api"
	"parcluster/internal/core"
	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// Graph is an immutable undirected graph in compressed sparse row form.
// Build one with FromEdges, LoadFile, Generate, or StandIn.
type Graph = graph.CSR

// CompressedGraph is the compressed, memory-mapped CSR: a .lgz file opened
// with OpenCompressed. Adjacency lists stay delta-gap varint encoded on
// disk and are streamed through reusable decode buffers during traversal,
// so graphs larger than RAM serve queries straight off the page cache.
// Kernels visit the same edges in the same order as on the heap CSR, so a
// run whose addition order is fixed (see FrontierMode) returns the same bits
// on either.
type CompressedGraph = graph.CCSR

// GraphData is the read-only graph interface every algorithm accepts. Both
// *Graph (heap CSR) and *CompressedGraph (memory-mapped .lgz) implement it;
// a given call runs identically — same visit order, same floating-point
// sums, same Stats — on either representation.
type GraphData = graph.Graph

// Edge is an undirected edge for FromEdges; orientation is irrelevant.
type Edge = graph.Edge

// Vector is a sparse map from vertex ID to diffusion mass — the output of
// the diffusion algorithms and the input of SweepCut.
type Vector = sparse.Map

// Stats reports algorithm work counters (pushes, iterations, edge
// traversals); see the paper's Table 1.
type Stats = core.Stats

// SweepResult is the outcome of a sweep cut: the minimum-conductance prefix
// plus the full sweep order and per-prefix conductances.
type SweepResult = core.SweepResult

// PushRule selects the PR-Nibble update rule.
type PushRule = core.PushRule

// The two PR-Nibble push rules of §3.3 of the paper.
const (
	OriginalRule  = core.OriginalRule
	OptimizedRule = core.OptimizedRule
)

// FrontierMode selects the diffusion engine's frontier representation
// strategy: FrontierAuto switches between the sparse (ID-list push,
// hash-table) and dense (pull over the whole CSR, flat-array)
// representations per iteration using Ligra's direction heuristic; the other
// two pin a representation. Every mode returns identical clusters and Stats
// — the knob trades constant factors only. Float bits are reproducible from
// run to run with Procs = 1, and under FrontierDense at any Procs (a pull
// round has one writer per vertex and a fixed addition order); sparse rounds
// with several workers accumulate in schedule order, like the paper's
// fetch-and-add, and may differ in the last place.
type FrontierMode = core.FrontierMode

// The frontier modes.
const (
	FrontierAuto   = core.FrontierAuto
	FrontierSparse = core.FrontierSparse
	FrontierDense  = core.FrontierDense
)

// ParseFrontierMode converts "auto" (or ""), "sparse" or "dense" to a
// FrontierMode.
func ParseFrontierMode(s string) (FrontierMode, error) { return core.ParseFrontierMode(s) }

// WorkspacePool recycles the graph-sized scratch state of the parallel
// diffusions (flat vectors, share arrays and frontier ID buffers)
// across runs against one graph. Batch workloads — many queries against the
// same graph — should create one pool per graph (NewWorkspacePool) and pass
// it via the Workspace field of the algorithm options: steady-state runs
// then perform no graph-sized allocations. A pool changes where scratch
// lives, never what is computed. A pool is safe for concurrent use;
// concurrent runs simply check out distinct workspaces. See
// docs/ARCHITECTURE.md for the ownership rules and DESIGN.md §5 for the
// memory model.
type WorkspacePool = workspace.Pool

// WorkspacePoolStats is a snapshot of one pool's recycling counters
// (WorkspacePool.Stats).
type WorkspacePoolStats = workspace.PoolStats

// NewWorkspacePool returns a workspace pool sized for g. The pool must only
// be used with runs against graphs of the same vertex count (in practice:
// against g); a mismatched pool is ignored by the algorithms rather than
// corrupting state.
func NewWorkspacePool(g GraphData) *WorkspacePool {
	return workspace.NewPool(g.NumVertices())
}

// ResultArena recycles the *result-sized* memory of a run — the returned
// diffusion vector's map and, via SweepOptions.Result, the sweep's order,
// member and conductance arrays — across queries, the counterpart of WorkspacePool for
// state that must outlive the run that produced it. Check one out with
// WorkspacePool.AcquireResult (or workspace.NewResult for an unpooled one),
// pass it via the Result field of the algorithm options, read the returned
// vector/sweep, then Release it; everything the run returned is recycled at
// that point and must no longer be read. An arena serves one run at a time
// and is not safe for concurrent use. An arena changes where a result
// lives, never its contents. See DESIGN.md §6 for the memory model.
type ResultArena = workspace.Result

// NewResultArena returns an unpooled result arena: borrowing behaves
// identically, but Release returns the memory to the GC instead of a pool.
// Steady-state callers should prefer WorkspacePool.AcquireResult.
func NewResultArena() *ResultArena {
	return workspace.NewResult()
}

// NCPPoint is one point of a network community profile.
type NCPPoint = core.NCPPoint

// Scale selects generated stand-in graph sizes (small / medium / large).
type Scale = gen.Scale

// Stand-in scales.
const (
	Small  = gen.Small
	Medium = gen.Medium
	Large  = gen.Large
)

// FromEdges builds a graph on n vertices (n <= 0 infers maxID+1) from an
// edge list, removing self loops and duplicate edges and symmetrizing.
// procs <= 0 uses all cores.
func FromEdges(procs, n int, edges []Edge) *Graph {
	return graph.FromEdges(procs, n, edges)
}

// LoadFile loads a heap-CSR graph from path (.adj = Ligra AdjacencyGraph
// text, .bin = binary, anything else = SNAP edge list). It refuses .lgz
// files — open those with Load or OpenCompressed.
func LoadFile(procs int, path string) (*Graph, error) { return graph.LoadFile(procs, path) }

// Load loads a graph from path with extension dispatch like LoadFile, plus
// .lgz: compressed files are memory-mapped (header-validated only, O(n)),
// everything else is parsed onto the heap.
func Load(procs int, path string) (GraphData, error) { return graph.Load(procs, path) }

// OpenCompressed memory-maps a compressed .lgz graph. Open cost is O(n)
// validation — the adjacency blocks fault in lazily under traversal. Close
// the returned graph to unmap.
func OpenCompressed(path string) (*CompressedGraph, error) { return graph.OpenCompressed(path) }

// SaveFile writes a graph to path with the same extension dispatch as Load
// (.lgz writes the compressed format).
func SaveFile(path string, g GraphData) error { return graph.SaveFile(path, g) }

// SaveCompressed writes g as a compressed .lgz file using procs workers
// (<= 0 = all cores).
func SaveCompressed(procs int, path string, g GraphData) error {
	return graph.SaveCompressed(procs, path, g)
}

// WriteAdjacencyGraph writes g in Ligra's AdjacencyGraph text format.
func WriteAdjacencyGraph(w io.Writer, g GraphData) error { return graph.WriteAdjacencyGraph(w, g) }

// Generate builds a graph from a named recipe (see internal/gen.Generate
// for the recipe list: figure1, randlocal, grid3d, sbm, caveman, barbell,
// community, chunglu, ws, and the paper's Table 2 stand-in names).
func Generate(name string, params map[string]int) (*Graph, error) {
	return gen.Generate(0, gen.Spec{Name: name, Params: params})
}

// MustGenerate is Generate, panicking on unknown recipes. Intended for
// examples and tests where the recipe name is a literal.
func MustGenerate(name string, params map[string]int) *Graph {
	g, err := Generate(name, params)
	if err != nil {
		panic(err)
	}
	return g
}

// StandIn generates the synthetic stand-in for one of the paper's Table 2
// inputs ("soc-LJ", "Twitter", "randLocal", ...) at the given scale.
func StandIn(procs int, name string, scale Scale) (*Graph, error) {
	return gen.StandIn(procs, name, scale)
}

// StandInNames lists the Table 2 inputs in the paper's row order.
func StandInNames() []string { return gen.StandInNames() }

// NibbleOptions configures Nibble. Zero values select the paper's Table 3
// parameters (T = 20, eps = 1e-8).
type NibbleOptions struct {
	Epsilon float64 // truncation threshold; default 1e-8
	T       int     // maximum iterations; default 20
	Procs   int     // workers for the parallel version; <= 0 = all cores
	// Sequential selects the paper's reference sequential implementation
	// instead of the parallel one.
	Sequential bool
	// Frontier selects the parallel version's frontier representation
	// (default FrontierAuto).
	Frontier FrontierMode
	// Workspace, when non-nil, lets the parallel version borrow its
	// graph-sized scratch state from a per-graph pool instead of allocating
	// per call (see WorkspacePool). Results are identical either way.
	Workspace *WorkspacePool
	// Result, when non-nil, is the arena the parallel version snapshots the
	// returned vector into; the vector is then valid only until the arena
	// is Released (see ResultArena). Results are identical either way.
	Result *ResultArena
	// Cancel, when non-nil, stops the parallel version at the next round
	// boundary once it fires (pass a context's Done channel); the partial
	// vector computed so far is returned and is the caller's to discard.
	Cancel <-chan struct{}
}

func (o *NibbleOptions) defaults() {
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-8
	}
	if o.T <= 0 {
		o.T = 20
	}
}

// runConfig assembles the execution environment the three frontier
// diffusions' options share.
func runConfig(procs int, mode FrontierMode, ws *WorkspacePool, res *ResultArena, cancel <-chan struct{}) core.RunConfig {
	return core.RunConfig{Procs: procs, Frontier: mode, Workspace: ws, Result: res, Cancel: cancel}
}

// Nibble runs the Nibble diffusion (§3.2) from seed and returns the
// truncated random-walk vector for a sweep cut.
func Nibble(g GraphData, seed uint32, opts NibbleOptions) (*Vector, Stats) {
	return NibbleFrom(g, []uint32{seed}, opts)
}

// PRNibbleOptions configures PRNibble. Zero values select the paper's
// Table 3 parameters (alpha = 0.01, eps = 1e-7, optimized rule).
type PRNibbleOptions struct {
	Alpha   float64 // teleportation parameter; default 0.01
	Epsilon float64 // push threshold; default 1e-7
	// UseOriginalRule selects the unoptimized push of Andersen et al.
	// instead of the paper's optimized rule.
	UseOriginalRule bool
	// Beta in (0, 1) enables the β-fraction variant (§3.3), processing only
	// the top β-fraction of eligible vertices per iteration. 0 or 1 = all.
	Beta  float64
	Procs int
	// Sequential selects the queue-based sequential implementation.
	Sequential bool
	// Frontier selects the parallel version's frontier representation
	// (default FrontierAuto).
	Frontier FrontierMode
	// Workspace, when non-nil, lets the parallel version borrow its
	// graph-sized scratch state from a per-graph pool instead of allocating
	// per call (see WorkspacePool). Results are identical either way.
	Workspace *WorkspacePool
	// Result, when non-nil, is the arena the parallel version snapshots the
	// returned vector into; the vector is then valid only until the arena
	// is Released (see ResultArena). Results are identical either way.
	Result *ResultArena
	// Cancel, when non-nil, stops the parallel version at the next round
	// boundary once it fires; the partial vector is the caller's to
	// discard.
	Cancel <-chan struct{}
}

func (o *PRNibbleOptions) defaults() {
	if o.Alpha <= 0 {
		o.Alpha = 0.01
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-7
	}
}

// rule maps the UseOriginalRule flag to the kernel's push rule.
func (o *PRNibbleOptions) rule() PushRule {
	if o.UseOriginalRule {
		return core.OriginalRule
	}
	return core.OptimizedRule
}

// PRNibble runs the PageRank-Nibble diffusion (§3.3) from seed and returns
// the approximate PageRank vector for a sweep cut.
func PRNibble(g GraphData, seed uint32, opts PRNibbleOptions) (*Vector, Stats) {
	return PRNibbleFrom(g, []uint32{seed}, opts)
}

// HKPROptions configures HKPR. Zero values select the paper's Table 3
// parameters (t = 10, N = 20, eps = 1e-7).
type HKPROptions struct {
	T          float64 // heat kernel temperature; default 10
	N          int     // Taylor truncation degree; default 20
	Epsilon    float64 // residual threshold; default 1e-7
	Procs      int
	Sequential bool
	// Frontier selects the parallel version's frontier representation
	// (default FrontierAuto).
	Frontier FrontierMode
	// Workspace, when non-nil, lets the parallel version borrow its
	// graph-sized scratch state from a per-graph pool instead of allocating
	// per call (see WorkspacePool). Results are identical either way.
	Workspace *WorkspacePool
	// Result, when non-nil, is the arena the parallel version snapshots the
	// returned vector into; the vector is then valid only until the arena
	// is Released (see ResultArena). Results are identical either way.
	Result *ResultArena
	// Cancel, when non-nil, stops the parallel version at the next level
	// boundary once it fires; the partial vector is the caller's to
	// discard.
	Cancel <-chan struct{}
}

func (o *HKPROptions) defaults() {
	if o.T <= 0 {
		o.T = 10
	}
	if o.N <= 0 {
		o.N = 20
	}
	if o.Epsilon <= 0 {
		o.Epsilon = 1e-7
	}
}

// HKPR runs the deterministic heat kernel PageRank diffusion (§3.4) from
// seed and returns the e^-t-scaled approximation of the heat kernel vector.
func HKPR(g GraphData, seed uint32, opts HKPROptions) (*Vector, Stats) {
	return HKPRFrom(g, []uint32{seed}, opts)
}

// RandHKPROptions configures RandHKPR. Zero values select t = 10, K = 10,
// Walks = 100000 (the paper's Table 3 uses 10^8 walks; scale Walks up for
// comparable noise levels).
type RandHKPROptions struct {
	T     float64 // heat kernel temperature; default 10
	K     int     // maximum walk length; default 10
	Walks int     // number of random walks; default 100000
	Seed  uint64  // randomness seed (walk i uses stream Split(Seed, i))
	Procs int
	// Sequential runs walks one at a time.
	Sequential bool
}

func (o *RandHKPROptions) defaults() {
	if o.T <= 0 {
		o.T = 10
	}
	if o.K <= 0 {
		o.K = 10
	}
	if o.Walks <= 0 {
		o.Walks = 100000
	}
}

// RandHKPR runs the randomized heat kernel PageRank (§3.5) from seed and
// returns the empirical distribution of walk endpoints. The sequential and
// parallel implementations return bit-identical vectors for the same Seed.
func RandHKPR(g GraphData, seed uint32, opts RandHKPROptions) (*Vector, Stats) {
	return RandHKPRFrom(g, []uint32{seed}, opts)
}

// NibbleFrom, PRNibbleFrom, HKPRFrom and RandHKPRFrom are the seed-set
// variants of the four diffusions (footnote 5 of the paper): the initial
// unit of mass is split evenly over the seed set, which also enlarges the
// frontiers and with them the available parallelism. Duplicate seeds are
// ignored; an empty or out-of-range seed set panics.

// NibbleFrom runs Nibble from a multi-vertex seed set.
func NibbleFrom(g GraphData, seeds []uint32, opts NibbleOptions) (*Vector, Stats) {
	opts.defaults()
	if opts.Sequential {
		return core.NibbleSeq(g, seeds, opts.Epsilon, opts.T)
	}
	return core.NibbleRun(g, seeds, opts.Epsilon, opts.T,
		runConfig(opts.Procs, opts.Frontier, opts.Workspace, opts.Result, opts.Cancel))
}

// PRNibbleFrom runs PR-Nibble from a multi-vertex seed set.
func PRNibbleFrom(g GraphData, seeds []uint32, opts PRNibbleOptions) (*Vector, Stats) {
	opts.defaults()
	if opts.Sequential {
		return core.PRNibbleSeq(g, seeds, opts.Alpha, opts.Epsilon, opts.rule())
	}
	return core.PRNibbleRun(g, seeds, opts.Alpha, opts.Epsilon, opts.rule(), opts.Beta,
		runConfig(opts.Procs, opts.Frontier, opts.Workspace, opts.Result, opts.Cancel))
}

// HKPRFrom runs HK-PR from a multi-vertex seed set.
func HKPRFrom(g GraphData, seeds []uint32, opts HKPROptions) (*Vector, Stats) {
	opts.defaults()
	if opts.Sequential {
		return core.HKPRSeq(g, seeds, opts.T, opts.N, opts.Epsilon)
	}
	return core.HKPRRun(g, seeds, opts.T, opts.N, opts.Epsilon,
		runConfig(opts.Procs, opts.Frontier, opts.Workspace, opts.Result, opts.Cancel))
}

// RandHKPRFrom runs rand-HK-PR from a multi-vertex seed set (each walk
// starts at a uniformly drawn seed).
func RandHKPRFrom(g GraphData, seeds []uint32, opts RandHKPROptions) (*Vector, Stats) {
	opts.defaults()
	if opts.Sequential {
		return core.RandHKPRSeq(g, seeds, opts.T, opts.K, opts.Walks, opts.Seed)
	}
	return core.RandHKPRRun(g, seeds, opts.T, opts.K, opts.Walks, opts.Seed, core.RunConfig{Procs: opts.Procs})
}

// Batched diffusions share one edge traversal between up to MaxBatchLanes
// same-parameter runs: each vertex carries a 64-bit mask of the lanes it is
// active in, so a batch touches every edge at most once per round no matter
// how many lanes cross it. Per-lane results and statistics are identical to
// running each unit alone.

// MaxBatchLanes is the most diffusions one batched call may carry — the
// width of the per-vertex active-lane mask.
const MaxBatchLanes = core.MaxBatchLanes

// BatchUnit is one diffusion of a batched run: its seed set plus optional
// per-unit result arena, cancel channel, and per-round observer. See
// internal/core.BatchUnit.
type BatchUnit = core.BatchUnit

// NibbleBatch runs up to MaxBatchLanes Nibble diffusions through shared
// traversals. Parameters and execution knobs come from opts exactly as for
// Nibble; the Sequential and Result fields are ignored (batches are always
// parallel, and arenas are per-unit via BatchUnit.Result). vecs[i] and
// stats[i] belong to units[i] and match an unbatched run bit for bit.
func NibbleBatch(g GraphData, units []BatchUnit, opts NibbleOptions) (vecs []*Vector, stats []Stats) {
	opts.defaults()
	return core.NibbleBatch(g, units, opts.Epsilon, opts.T, core.BatchConfig{
		Procs: opts.Procs, Frontier: opts.Frontier, Workspace: opts.Workspace, Cancel: opts.Cancel,
	})
}

// PRNibbleBatch runs up to MaxBatchLanes PR-Nibble diffusions through
// shared traversals. Parameters come from opts exactly as for PRNibble; the
// Sequential, Result and Beta fields are ignored (the
// β-fraction variant ranks vertices across one run's frontier and has no
// per-lane analogue — batches always process the full frontier, β = 1).
func PRNibbleBatch(g GraphData, units []BatchUnit, opts PRNibbleOptions) (vecs []*Vector, stats []Stats) {
	opts.defaults()
	return core.PRNibbleBatch(g, units, opts.Alpha, opts.Epsilon, opts.rule(), core.BatchConfig{
		Procs: opts.Procs, Frontier: opts.Frontier, Workspace: opts.Workspace, Cancel: opts.Cancel,
	})
}

// EvolvingSetOptions configures EvolvingSet; see internal/core.
type EvolvingSetOptions = core.EvolvingSetOptions

// EvolvingSetResult is the outcome of an evolving set run.
type EvolvingSetResult = core.EvolvingSetResult

// EvolvingSet runs the evolving set process of Andersen and Peres (the
// fifth local algorithm the paper discusses in §5, with the random-walk
// coupling that keeps the process alive). Unlike the four diffusions it
// produces a cluster directly, without a sweep cut. Sequential and parallel
// versions follow identical trajectories for the same Seed.
func EvolvingSet(g GraphData, seed uint32, opts EvolvingSetOptions, sequential bool) (EvolvingSetResult, Stats) {
	if sequential {
		return core.EvolvingSetSeq(g, seed, opts)
	}
	return core.EvolvingSetPar(g, seed, opts)
}

// SweepOptions configures SweepCut.
type SweepOptions struct {
	Procs int
	// Sequential selects the standard sequential sweep instead of the
	// parallel one. Both return identical results.
	Sequential bool
	// Result, when non-nil, is the arena the selected sweep borrows its
	// result (Cluster, Order, PrefixConductance) and scratch from; the
	// returned slices are then valid only until the arena is Released (see
	// ResultArena). Results are identical either way.
	Result *ResultArena
}

// SweepCut rounds a diffusion vector into the minimum-conductance sweep
// cluster (§3.1).
func SweepCut(g GraphData, vec *Vector, opts SweepOptions) SweepResult {
	if opts.Sequential {
		return core.SweepCutSeq(g, vec, opts.Result)
	}
	return core.SweepCutPar(g, vec, opts.Procs, opts.Result)
}

// Cluster is the end-to-end result of FindCluster.
type Cluster struct {
	// Members are the cluster's vertices in sweep order.
	Members []uint32
	// Conductance, Volume and Cut describe the cluster's quality.
	Conductance float64
	Volume, Cut uint64
	// Stats are the diffusion's work counters.
	Stats Stats
}

// ClusterOptions configures FindCluster. The zero value runs parallel
// PR-Nibble with the paper's default parameters followed by a parallel
// sweep cut.
type ClusterOptions struct {
	// Method is one of "prnibble" (default), "nibble", "hkpr", "randhk",
	// "evolving".
	Method string
	// The per-method options; only the one matching Method is consulted.
	Nibble      NibbleOptions
	PRNibble    PRNibbleOptions
	HKPR        HKPROptions
	RandHKPR    RandHKPROptions
	EvolvingSet EvolvingSetOptions
	Sweep       SweepOptions
	// Workspace, when non-nil, is the per-graph scratch pool handed to
	// whichever method runs (unless that method's own options already carry
	// one). Batch callers running FindCluster in a loop against one graph
	// should set it; see WorkspacePool.
	Workspace *WorkspacePool
}

// FindCluster runs a diffusion from seed and a sweep cut over the result —
// the complete local clustering pipeline of the paper.
func FindCluster(g GraphData, seed uint32, opts ClusterOptions) (Cluster, error) {
	if opts.Workspace != nil {
		if opts.Nibble.Workspace == nil {
			opts.Nibble.Workspace = opts.Workspace
		}
		if opts.PRNibble.Workspace == nil {
			opts.PRNibble.Workspace = opts.Workspace
		}
		if opts.HKPR.Workspace == nil {
			opts.HKPR.Workspace = opts.Workspace
		}
		if opts.EvolvingSet.Workspace == nil {
			opts.EvolvingSet.Workspace = opts.Workspace
		}
	}
	var vec *Vector
	var st Stats
	switch opts.Method {
	case "", "prnibble":
		vec, st = PRNibble(g, seed, opts.PRNibble)
	case "nibble":
		vec, st = Nibble(g, seed, opts.Nibble)
	case "hkpr":
		vec, st = HKPR(g, seed, opts.HKPR)
	case "randhk":
		vec, st = RandHKPR(g, seed, opts.RandHKPR)
	case "evolving":
		// The evolving set process produces a cluster directly (no sweep).
		res, st := EvolvingSet(g, seed, opts.EvolvingSet, false)
		return Cluster{
			Members:     res.Set,
			Conductance: res.Conductance,
			Volume:      res.Volume,
			Cut:         res.Cut,
			Stats:       st,
		}, nil
	default:
		return Cluster{}, fmt.Errorf("parcluster: unknown method %q (want nibble, prnibble, hkpr, randhk or evolving)", opts.Method)
	}
	res := SweepCut(g, vec, opts.Sweep)
	return Cluster{
		Members:     res.Cluster,
		Conductance: res.Conductance,
		Volume:      res.Volume,
		Cut:         res.Cut,
		Stats:       st,
	}, nil
}

// NCPOptions configures ComputeNCP; see internal/core.NCPOptions.
type NCPOptions = core.NCPOptions

// ComputeNCP computes the network community profile of g (§4, Figure 12):
// the best conductance found at each cluster size over many PR-Nibble runs.
func ComputeNCP(g GraphData, opts NCPOptions) []NCPPoint { return core.NCP(g, opts) }

// NCPLowerEnvelope buckets NCP points into log-spaced size bins, keeping
// the per-bin minimum — the curve the paper plots.
func NCPLowerEnvelope(points []NCPPoint) []NCPPoint { return core.LowerEnvelope(points) }

// PrecisionRecall compares a found cluster against a ground-truth set and
// returns |found ∩ truth| / |found| and |found ∩ truth| / |truth|.
func PrecisionRecall(found, truth []uint32) (precision, recall float64) {
	if len(found) == 0 || len(truth) == 0 {
		return 0, 0
	}
	set := make(map[uint32]bool, len(truth))
	for _, v := range truth {
		set[v] = true
	}
	inter := 0
	for _, v := range found {
		if set[v] {
			inter++
		}
	}
	return float64(inter) / float64(len(found)), float64(inter) / float64(len(truth))
}

// Jaccard returns |a ∩ b| / |a ∪ b| for two vertex sets.
func Jaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[uint32]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	inter := 0
	for _, v := range b {
		if set[v] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// The serving layer (internal/service, exposed over HTTP by cmd/lgc-serve)
// answers many clustering queries against shared, load-once graphs with an
// LRU result cache and a bounded worker pool. Its wire types live in
// internal/api — deliberately free of net/http and expvar, so importing
// this package has no serving side effects — and are re-exported here so
// clients and embedders can speak the service's wire format with the
// library's own types.

// ClusterRequest asks the query service for local clusters around one or
// more seed vertices of a registered graph (POST /v1/cluster).
type ClusterRequest = api.ClusterRequest

// ClusterResponse is the service's reply to a ClusterRequest: per-seed
// clusters plus aggregate statistics.
type ClusterResponse = api.ClusterResponse

// ClusterResult is one cluster within a ClusterResponse.
type ClusterResult = api.ClusterResult

// ClusterParams carries the per-algorithm parameters of a ClusterRequest;
// zero values select the paper's Table 3 defaults.
type ClusterParams = api.Params

// ClusterAggregate summarizes a batched multi-seed query.
type ClusterAggregate = api.Aggregate

// NCPRequest asks the query service for a network community profile
// (POST /v1/ncp).
type NCPRequest = api.NCPRequest

// NCPResponse is the service's reply to an NCPRequest.
type NCPResponse = api.NCPResponse

// GraphCatalogInfo describes one entry of the service's graph registry
// (GET /v1/graphs).
type GraphCatalogInfo = api.GraphInfo

// ServiceStats is a snapshot of the query engine's counters
// (GET /v1/stats and the "lgc" expvar).
type ServiceStats = api.EngineStats

// SortedCopy returns a sorted copy of a vertex set — handy when comparing
// clusters whose sweep orders differ.
func SortedCopy(s []uint32) []uint32 {
	out := append([]uint32(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
