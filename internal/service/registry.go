package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/gen"
	"parcluster/internal/graph"
	"parcluster/internal/wal"
	"parcluster/internal/workspace"
)

// Source produces a graph on demand. procs is the worker count to use for
// the (parallel) load or generation. A source may return either
// representation — the heap *graph.CSR or the memory-mapped *graph.CCSR —
// and the registry serves both identically.
type Source func(procs int) (graph.Graph, error)

// GraphInfo describes one registry entry for listings.
type GraphInfo = api.GraphInfo

// Registry is a concurrency-safe catalog of graphs. Sources are registered
// under a name and materialized lazily on first Get; concurrent Gets for
// the same name share a single load (singleflight), and a successful load
// is kept forever. A failed load is not kept: the error is reported to
// everyone waiting on that load, and the next Get retries the source.
//
// Every loaded graph is wrapped in a graph.Versioned overlay, so it can
// mutate through ingest batches (Versioned) while queries run against
// pinned epoch snapshots (Acquire). The CSR handed out for any one epoch
// is immutable; mutation only ever produces new snapshots.
type Registry struct {
	mu      sync.Mutex
	sources map[string]Source
	loads   map[string]*load
	procs   int
	dynamic bool
	walCfg  *WALConfig
	// dynamicCount / dynamicLimit bound how many distinct on-the-fly specs
	// clients can materialize: loaded graphs are pinned forever, so without
	// a cap dynamic mode would let a client grow the process without bound.
	dynamicCount int
	dynamicLimit int

	loadCount atomic.Int64 // completed successful loads, for tests and stats
}

// maxDynamicGraphs caps the number of distinct client-supplied generator
// specs a dynamic registry will materialize. Operator-registered graphs
// are not counted.
const maxDynamicGraphs = 64

// load is one singleflight slot: the first Get for a name creates it and
// runs the source; everyone else waits on done. A successful load wraps the
// graph in its mutation overlay (vg) and owns one workspace pool per vertex
// universe pinned snapshots can still borrow from: pools are sized to a
// universe, and ingest can grow the universe, so a grown graph gets a fresh
// pool while snapshots of older epochs keep borrowing from theirs — and a
// pool is retired once no pin can reach it (its universe is no longer
// current and its pin count hit zero), so repeated growth cannot
// accumulate graph-sized pools without bound.
type load struct {
	done chan struct{}
	g    graph.Graph // the base graph as originally loaded (epoch 0)
	vg   *graph.Versioned
	wal  *wal.Log // nil unless the registry persists this graph
	err  error
	// loadMS is how long materializing the graph took (source read or
	// generation, plus WAL checkpoint + replay when durable).
	loadMS int64

	poolMu   sync.Mutex
	pools    map[int]*workspace.Pool // universe size -> pool
	poolPins map[int]int             // universe size -> outstanding PinnedGraph pins
}

// finish installs the overlay and the initial workspace pool for a
// successfully sourced graph.
func (l *load) finish(procs int, g graph.Graph) {
	l.finishVersioned(graph.NewVersioned(procs, g), g)
}

// finishVersioned is finish for an overlay built elsewhere (the WAL
// recovery path, where the overlay may start at a checkpoint epoch). The
// initial pool is sized to the overlay's current universe, which after a
// replay can be larger than the sourced base.
func (l *load) finishVersioned(vg *graph.Versioned, g graph.Graph) {
	l.g = g
	l.vg = vg
	n := vg.Stats().Vertices
	l.pools = map[int]*workspace.Pool{n: workspace.NewPool(n)}
	l.poolPins = make(map[int]int)
}

// acquirePool returns the workspace pool for a vertex universe of size n —
// creating it on first use after the universe grows — and counts one pin
// against it. Every acquire must be balanced by one releasePool.
func (l *load) acquirePool(n int) *workspace.Pool {
	l.poolMu.Lock()
	defer l.poolMu.Unlock()
	p, ok := l.pools[n]
	if !ok {
		p = workspace.NewPool(n)
		l.pools[n] = p
	}
	l.poolPins[n]++
	return p
}

// releasePool drops one pin from universe n's pool and sweeps: any pool
// whose universe is no longer the overlay's current size and has zero pins
// is unreachable — no existing PinnedGraph borrows from it and no future
// Acquire will return it — so it is deleted and its arenas become garbage.
// The current universe's pool always survives, pinned or not.
func (l *load) releasePool(n int) {
	cur := l.vg.Stats().Vertices
	l.poolMu.Lock()
	defer l.poolMu.Unlock()
	if l.poolPins[n]--; l.poolPins[n] <= 0 {
		delete(l.poolPins, n)
	}
	for size := range l.pools {
		if size != cur && l.poolPins[size] == 0 {
			delete(l.pools, size)
		}
	}
}

// PinnedGraph is one epoch of one graph, pinned for the lifetime of a
// request: G is the immutable CSR of that epoch, Pool the workspace pool
// sized to its universe, and Epoch the version the request must report.
// Release the pin — exactly once; it is idempotent — when the request
// finishes, so leak detectors (Versioned.Pins) can prove quiescence.
type PinnedGraph struct {
	G       graph.Graph
	Epoch   uint64
	Pool    *workspace.Pool
	release func()
	once    sync.Once
}

// Release returns the pin. Idempotent.
func (p *PinnedGraph) Release() { p.once.Do(p.release) }

// WALConfig enables per-graph write-ahead logging: every graph the
// registry materializes gets a segmented log under Dir (one subdirectory
// per graph name), ingest batches commit to it before their epoch becomes
// visible, and a load replays it to recover the exact pre-crash epoch.
type WALConfig struct {
	// Dir is the root directory for the per-graph logs.
	Dir string
	// Policy and Interval select the fsync policy (see wal.ParseSyncPolicy).
	Policy   wal.SyncPolicy
	Interval time.Duration
}

// EnableWAL turns on durable ingest for every graph this registry loads
// from now on. Call it before the first load: already-materialized graphs
// keep running without a log. Eagerly-registered graphs (RegisterGraph)
// registered after this call are re-routed through the lazy load path so
// their logs replay on first use.
func (r *Registry) EnableWAL(cfg WALConfig) error {
	if cfg.Dir == "" {
		return errors.New("service: WAL dir must not be empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.walCfg = &cfg
	return nil
}

// graphWALDir maps a graph name to its per-graph log directory, escaping
// anything outside [A-Za-z0-9._-] (and the all-dots names that would walk
// the directory tree) as %XX so distinct names cannot collide or escape
// the WAL root.
func graphWALDir(root, name string) string {
	var b []byte
	allDots := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
			b = append(b, c)
		default:
			b = append(b, fmt.Sprintf("%%%02X", c)...)
		}
		if c != '.' {
			allDots = false
		}
	}
	if len(b) == 0 || allDots {
		// "" / "." / ".." would name nothing or walk the tree; hex-escape
		// every byte instead. A raw '%' never survives the normal path, so
		// these cannot collide with an unescaped name.
		b = b[:0]
		for i := 0; i < len(name); i++ {
			b = append(b, fmt.Sprintf("%%%02X", name[i])...)
		}
		if len(b) == 0 {
			b = append(b, '%')
		}
	}
	return filepath.Join(root, string(b))
}

// NewRegistry returns an empty registry. procs is the worker count passed
// to sources (<= 0 = all cores). If dynamic is true, a Get for an
// unregistered name is interpreted as a generator spec (e.g.
// "caveman:cliques=16,k=12" or a Table 2 stand-in name) and generated on
// the fly; the materialized graph is then cached like any other entry.
func NewRegistry(procs int, dynamic bool) *Registry {
	return &Registry{
		sources:      make(map[string]Source),
		loads:        make(map[string]*load),
		procs:        procs,
		dynamic:      dynamic,
		dynamicLimit: maxDynamicGraphs,
	}
}

// Register adds a named source. Re-registering a name replaces the source
// but does not invalidate an already-loaded graph.
func (r *Registry) Register(name string, src Source) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[name] = src
}

// RegisterGraph adds an already-materialized graph. With a WAL enabled the
// graph still materializes through the lazy load path on first use, so its
// log replays on top of g instead of being skipped.
func (r *Registry) RegisterGraph(name string, g graph.Graph) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources[name] = func(int) (graph.Graph, error) { return g, nil }
	if r.walCfg != nil {
		return
	}
	l := &load{done: closedChan}
	l.finish(r.procs, g)
	r.loads[name] = l
}

// RegisterFile adds a graph file source (.adj, .bin, .lgz, or edge list;
// see graph.Load). The file is read — or, for .lgz, memory-mapped and
// header-validated only — on first query.
func (r *Registry) RegisterFile(name, path string) {
	r.RegisterFileFormat(name, path, "")
}

// RegisterFileFormat is RegisterFile with an explicit on-disk format
// ("adj", "bin", "edges", "lgz"; "" or "auto" detects from the extension).
func (r *Registry) RegisterFileFormat(name, path, format string) {
	r.Register(name, func(p int) (graph.Graph, error) { return graph.LoadFormat(p, path, format) })
}

// RegisterSpec adds a generator-spec source ("barbell:k=20", "soc-LJ", ...).
// The spec is parsed now (so typos fail at registration time) but generated
// on first query.
func (r *Registry) RegisterSpec(name, spec string) error {
	s, err := gen.ParseSpec(spec)
	if err != nil {
		return err
	}
	r.Register(name, func(p int) (graph.Graph, error) { return gen.Generate(p, s) })
	return nil
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Get resolves name to its current graph snapshot, loading it if
// necessary. Concurrent calls for the same unloaded name perform one load
// between them. The context only bounds this caller's wait — an in-flight
// load itself is never abandoned, since another waiter may still want it.
// The returned CSR is one immutable epoch snapshot; callers that must hold a
// single epoch (or its workspace pool) across a whole request use Acquire.
func (r *Registry) Get(ctx context.Context, name string) (graph.Graph, error) {
	pin, err := r.Acquire(ctx, name)
	if err != nil {
		return nil, err
	}
	// The CSR outlives the pin (it is immutable); only epoch and pool
	// accounting need the pin held, and this caller holds neither.
	pin.Release()
	return pin.G, nil
}

// Acquire resolves name and pins its current epoch snapshot: the returned
// CSR is immutable and stays this epoch's edge set no matter how many
// ingest batches or compactions land while the request runs. The caller
// must Release the pin when done with the graph.
func (r *Registry) Acquire(ctx context.Context, name string) (*PinnedGraph, error) {
	l, err := r.resolve(ctx, name)
	if err != nil {
		return nil, err
	}
	snap := l.vg.Snapshot()
	g := snap.Graph()
	n := g.NumVertices()
	return &PinnedGraph{G: g, Epoch: snap.Epoch(), Pool: l.acquirePool(n), release: func() {
		snap.Release()
		l.releasePool(n)
	}}, nil
}

// Versioned resolves name to its mutation overlay — the handle ingest
// batches apply through and the compactor folds.
func (r *Registry) Versioned(ctx context.Context, name string) (*graph.Versioned, error) {
	l, err := r.resolve(ctx, name)
	if err != nil {
		return nil, err
	}
	return l.vg, nil
}

// resolve returns the completed load slot for name, running or joining the
// singleflight load as needed.
func (r *Registry) resolve(ctx context.Context, name string) (*load, error) {
	r.mu.Lock()
	if l, ok := r.loads[name]; ok {
		r.mu.Unlock()
		return l.wait(ctx)
	}
	src, ok := r.sources[name]
	isDynamic := false
	if !ok {
		if !r.dynamic {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q", ErrUnknownGraph, name)
		}
		if r.dynamicCount >= r.dynamicLimit {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: dynamic graph limit reached (%d specs materialized); register graphs at startup instead", ErrBadRequest, r.dynamicLimit)
		}
		spec, err := gen.ParseSpec(name)
		if err != nil {
			r.mu.Unlock()
			return nil, fmt.Errorf("%w: %q (%v)", ErrUnknownGraph, name, err)
		}
		isDynamic = true
		src = func(p int) (graph.Graph, error) {
			g, err := gen.Generate(p, spec)
			if err != nil {
				// An unparseable or unknown recipe is "no such graph", not a
				// server fault.
				return nil, fmt.Errorf("%w: %q (%v)", ErrUnknownGraph, name, err)
			}
			return g, nil
		}
	}
	l := &load{done: make(chan struct{})}
	r.loads[name] = l
	if isDynamic {
		r.dynamicCount++
	}
	cfg := r.walCfg
	r.mu.Unlock()

	var err error
	start := time.Now()
	if cfg == nil {
		var g graph.Graph
		if g, err = src(r.procs); err == nil {
			l.finish(r.procs, g)
		}
	} else {
		err = r.loadDurable(l, name, src, cfg)
	}
	if err != nil {
		l.err = err
		r.mu.Lock()
		delete(r.loads, name) // let the next Get retry
		if isDynamic {
			r.dynamicCount--
		}
		r.mu.Unlock()
	} else {
		l.loadMS = time.Since(start).Milliseconds()
		r.loadCount.Add(1)
		st := l.vg.Stats()
		slog.Default().Info("graph loaded", "graph", name,
			"vertices", st.Vertices, "edges", st.BaseEdges,
			"format", graph.Format(l.g), "load_ms", l.loadMS)
	}
	close(l.done)
	return l, l.err
}

// loadDurable materializes one graph with its write-ahead log attached:
// open (and repair) the log, build the base — from the newest checkpoint
// when one exists, else from the source — replay every batch the log holds
// beyond that base, asserting each lands on exactly the epoch it was
// logged at, and only then install the commit hook that routes all future
// Apply calls through the log. A recovered overlay is therefore
// bit-identical to the never-crashed one: same base construction, same
// canonicalized batches in the same order.
func (r *Registry) loadDurable(l *load, name string, src Source, cfg *WALConfig) error {
	lg, err := wal.Open(graphWALDir(cfg.Dir, name), wal.Options{
		Policy:   cfg.Policy,
		Interval: cfg.Interval,
	})
	if err != nil {
		return err
	}
	fail := func(err error) error {
		lg.Close()
		return err
	}
	var base graph.Graph
	var vg *graph.Versioned
	if ckpt := lg.CheckpointEpoch(); ckpt > 0 {
		rd, err := lg.CheckpointReader()
		if err != nil {
			return fail(err)
		}
		if base, err = graph.ReadBinary(rd); err != nil {
			return fail(fmt.Errorf("service: reading WAL checkpoint for %q: %w", name, err))
		}
		vg = graph.NewVersionedAt(r.procs, base, ckpt)
	} else {
		if base, err = src(r.procs); err != nil {
			return fail(err)
		}
		vg = graph.NewVersioned(r.procs, base)
	}
	if err := lg.Replay(func(b *wal.Batch) error {
		st, err := vg.Apply(toEdges(b.Ins), toEdges(b.Del), int(b.Vertices))
		if err != nil {
			return err
		}
		if st.Epoch != b.Epoch {
			return fmt.Errorf("replayed batch landed on epoch %d, log says %d", st.Epoch, b.Epoch)
		}
		return nil
	}); err != nil {
		return fail(fmt.Errorf("service: replaying WAL for %q: %w", name, err))
	}
	vg.SetCommit(func(ins, del []graph.Edge, vertices int, epoch uint64) error {
		return lg.Append(&wal.Batch{
			Epoch:    epoch,
			Vertices: uint64(vertices),
			Ins:      toPairs(ins),
			Del:      toPairs(del),
		})
	})
	l.wal = lg
	l.finishVersioned(vg, base)
	return nil
}

// toPairs converts canonicalized edges to the WAL's wire pairs.
func toPairs(edges []graph.Edge) [][2]uint32 {
	if len(edges) == 0 {
		return nil
	}
	out := make([][2]uint32, len(edges))
	for i, e := range edges {
		out[i] = [2]uint32{e.U, e.V}
	}
	return out
}

// Close flushes and closes every per-graph write-ahead log. Call it after
// the engine has drained; the registry must not be used afterwards.
func (r *Registry) Close() error {
	var errs []error
	for _, l := range r.completedLoads() {
		if l.wal != nil {
			errs = append(errs, l.wal.Close())
		}
	}
	return errors.Join(errs...)
}

// SyncWAL fsyncs every per-graph log with unsynced records, so a drained
// engine holds zero un-fsynced WAL records under any fsync policy.
func (r *Registry) SyncWAL() error {
	var errs []error
	for _, l := range r.completedLoads() {
		if l.wal != nil {
			errs = append(errs, l.wal.Sync())
		}
	}
	return errors.Join(errs...)
}

// WalStats aggregates the write-ahead-log counters across every loaded
// graph. Enabled reflects configuration even when nothing has loaded yet.
func (r *Registry) WalStats() api.WalStats {
	r.mu.Lock()
	out := api.WalStats{Enabled: r.walCfg != nil}
	r.mu.Unlock()
	for _, l := range r.completedLoads() {
		if l.wal == nil {
			continue
		}
		st := l.wal.Stats()
		out.Add(api.WalStats{
			Appends:         st.Appends,
			Bytes:           st.AppendedBytes,
			Fsyncs:          st.Fsyncs,
			ReplayedBatches: st.ReplayedBatches,
			ReplayMS:        st.ReplayMS,
			Segments:        int64(st.Segments),
			Checkpoints:     st.Checkpoints,
		})
	}
	return out
}

func (l *load) wait(ctx context.Context) (*load, error) {
	select {
	case <-l.done:
		return l, l.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Loads returns the number of successful graph loads performed — with
// singleflight dedup this stays at one per distinct graph no matter how
// many concurrent queries raced on it.
func (r *Registry) Loads() int64 { return r.loadCount.Load() }

// WorkspaceStats aggregates the counters of every per-graph workspace pool
// the registry owns (loads still in flight, which have no pool yet, are
// skipped).
func (r *Registry) WorkspaceStats() api.WorkspaceStats {
	var pools []*workspace.Pool
	for _, l := range r.completedLoads() {
		l.poolMu.Lock()
		for _, p := range l.pools {
			pools = append(pools, p)
		}
		l.poolMu.Unlock()
	}
	var out api.WorkspaceStats
	for _, p := range pools {
		s := p.Stats()
		out.Add(api.WorkspaceStats{
			Pools:              1,
			Acquires:           s.Acquires,
			Hits:               s.Hits,
			Misses:             s.Misses,
			Releases:           s.Releases,
			BytesRecycled:      s.BytesRecycled,
			BatchAcquires:      s.BatchAcquires,
			BatchHits:          s.BatchHits,
			BatchMisses:        s.BatchMisses,
			BatchReleases:      s.BatchReleases,
			BatchBytesRecycled: s.BatchBytesRecycled,
		})
	}
	return out
}

// completedLoads snapshots every load that has finished successfully.
func (r *Registry) completedLoads() []*load {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*load, 0, len(r.loads))
	for _, l := range r.loads {
		select {
		case <-l.done:
			if l.err == nil {
				out = append(out, l)
			}
		default: // load in flight
		}
	}
	return out
}

// versioned snapshots every loaded graph's slot, keyed by name — the
// compactor's work list, carrying both the overlay to fold and the WAL to
// checkpoint.
func (r *Registry) versioned() map[string]*load {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*load, len(r.loads))
	for name, l := range r.loads {
		select {
		case <-l.done:
			if l.err == nil {
				out[name] = l
			}
		default:
		}
	}
	return out
}

// IngestStats sums the mutation counters of every loaded graph's overlay.
func (r *Registry) IngestStats() api.IngestStats {
	var out api.IngestStats
	for _, l := range r.completedLoads() {
		st := l.vg.Stats()
		out.Edges += int64(st.Edges)
		out.Deletes += int64(st.Deletes)
		out.Batches += int64(st.Batches)
		out.Compactions += int64(st.Compactions)
		out.Pending += int64(st.Pending)
		out.Epoch += st.Epoch
		out.Pins += l.vg.Pins()
	}
	return out
}

// List describes every registered or materialized graph, sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := make(map[string]bool, len(r.sources)+len(r.loads))
	var out []GraphInfo
	add := func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		info := GraphInfo{Name: name}
		if l, ok := r.loads[name]; ok {
			select {
			case <-l.done:
				if l.err == nil {
					st := l.vg.Stats()
					info.Loaded = true
					info.Vertices = st.Vertices
					// Exact once compacted; between compactions the listing
					// reports the base edge count with Pending uncompacted
					// delta records alongside.
					info.Edges = st.BaseEdges
					info.Epoch = st.Epoch
					info.Pending = st.Pending
					info.Format = graph.Format(l.g)
					info.LoadMS = l.loadMS
					if c, ok := l.g.(*graph.CCSR); ok {
						info.MappedBytes = c.MappedBytes()
						info.ResidentHint = c.ResidentBytes()
					}
				}
			default: // load in flight; report as not yet loaded
			}
		}
		out = append(out, info)
	}
	for name := range r.sources {
		add(name)
	}
	for name := range r.loads {
		add(name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
