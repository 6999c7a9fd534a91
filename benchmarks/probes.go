package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parcluster"
	"parcluster/internal/graph"
	"parcluster/internal/ligra"
	"parcluster/internal/parallel"
	"parcluster/internal/sparse"
	"parcluster/internal/wal"
)

// Probes time calls into one package at a time, from outside it, on the
// workload's graph. They do not depend on the workload, so every traced run
// reports them; each names, in README.md, the end-to-end metric it should
// move. All keys and edges come from the run's --seed.

// sink keeps the compiler from dropping a loop whose result is unused.
var sink uint64

func since(start time.Time) float64 { return float64(time.Since(start)) }

// best is the fastest of reps runs of fn in nanoseconds: a probe asks what
// the layer costs, not how noisy the host is.
func best(reps int, fn func()) float64 {
	min := 0.0
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if ns := since(start); i == 0 || ns < min {
			min = ns
		}
	}
	return min
}

func runProbes(e *env) (values, error) {
	P := e.procs
	dir := filepath.Join(e.work, "probes")
	out := values{"load.loadavg_start": e.rec.LoadAvg}

	// gen, graph: build, pack, open, scan.
	gf, err := buildGraph(e, e.size.serveN, dir, ".lgz")
	if err != nil {
		return nil, err
	}
	g := gf.g
	n, m := g.NumVertices(), float64(g.NumEdges())
	out["gen.generate_s"], out["graph.pack_s"] = gf.genS, gf.packS
	fi, err := os.Stat(gf.path)
	if err != nil {
		return nil, err
	}
	out["graph.lgz_bytes_per_edge"] = float64(fi.Size()) / m
	start := time.Now()
	lgz, err := parcluster.OpenCompressed(gf.path)
	if err != nil {
		return nil, err
	}
	defer lgz.Close()
	out["graph.open_ms"] = since(start) / 1e6
	scan := func(g parcluster.GraphData) float64 {
		var buf []uint32
		return best(3, func() {
			for v := 0; v < n; v++ {
				buf = g.NeighborsInto(buf, uint32(v))
				for _, w := range buf {
					sink += uint64(w)
				}
			}
		}) / (2 * m)
	}
	out["graph.heap.scan_ns_per_edge"] = scan(g)
	out["graph.lgz.scan_ns_per_edge"] = scan(lgz)

	// ligra: traversal alone (a callback that does nothing), then the real
	// diffusion round: Dense.Add(dst, share[src]).
	r := newRand(e.seed, streamProbe, 0)
	some := make([]uint32, 1000)
	for i := range some {
		some[i] = uint32(r.Intn(n))
	}
	frontier := ligra.FromIDs(some)
	vol := float64(frontier.Volume(1, lgz))
	out["ligra.sparse.ns_per_edge"] = best(20, func() {
		ligra.EdgeApplyIndexed(1, lgz, frontier, func(int, uint32, uint32) {})
	}) / vol
	all := make([]uint32, n)
	share := make([]float64, n)
	for v := range all {
		all[v] = uint32(v)
		if d := g.Degree(uint32(v)); d > 0 {
			share[v] = 1 / float64(d) / float64(n)
		}
	}
	full := ligra.FromIDs(all).WithBitmap(P, n, nil)
	acc := sparse.NewDense(n)
	widths := []struct {
		suffix string
		procs  int
	}{{".p1", 1}, {".pN", P}}
	for _, p := range widths {
		out["ligra.dense.ns_per_edge"+p.suffix] = best(3, func() {
			ligra.EdgeApplyDense(p.procs, g, full, func(uint32, uint32) {})
		}) / (2 * m)
		out["ligra.dense.accumulate_ns_per_edge"+p.suffix] = best(3, func() {
			acc.Reset(p.procs, 0)
			ligra.EdgeApplyDense(p.procs, g, full, func(src, dst uint32) { acc.Add(dst, share[src]) })
		}) / (2 * m)
	}
	if sum := acc.Sum(1); sum < 0.99 || sum > 1.001 { // 1 less the share of isolated vertices
		return nil, fmt.Errorf("dense accumulate probe: shares sum to %g, not 1", sum)
	}

	// sparse: adds on random keys.
	const adds = 1 << 20
	keys := make([]uint32, adds)
	for i := range keys {
		keys[i] = uint32(r.Intn(n))
	}
	for _, p := range widths {
		out["sparse.dense.add_ns"+p.suffix] = best(3, func() {
			acc.Reset(p.procs, 0)
			parallel.ForRange(p.procs, adds, 4096, func(lo, hi int) {
				for _, k := range keys[lo:hi] {
					acc.Add(k, 1)
				}
			})
		}) / adds
	}
	out["sparse.map.add_ns"] = best(3, func() {
		mp := sparse.NewMap(0)
		for _, k := range keys[:adds/8] {
			mp.Add(k, 1)
		}
	}) / (adds / 8)
	// Lanes: the 64-lane row add the batch kernel does per edge at procs=1.
	lanes := sparse.NewLanes(n)
	row := make([]float64, sparse.LaneStride)
	out["sparse.lanes.add_ns"] = best(3, func() {
		for _, k := range keys[:adds/sparse.LaneStride] {
			lanes.AddMasked(k, row, ^uint64(0))
		}
	}) / (adds / sparse.LaneStride * sparse.LaneStride)

	// parallel: sort and filter n (score, id) pairs, as the sweep does.
	type scored struct {
		score float64
		id    uint32
	}
	pairs := make([]scored, n)
	work := make([]scored, n)
	for i := range pairs {
		pairs[i] = scored{r.Float64(), uint32(i)}
	}
	less := func(a, b scored) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return a.id < b.id
	}
	out["parallel.sort_ns_per_elem.p1"] = best(3, func() { copy(work, pairs); parallel.Sort(1, work, less) }) / float64(n)
	out["parallel.sort_ns_per_elem.pN"] = best(3, func() { copy(work, pairs); parallel.Sort(P, work, less) }) / float64(n)
	out["parallel.filter_ns_per_elem.pN"] = best(3, func() {
		sink += uint64(len(parallel.FilterInto(P, pairs, work, func(s scored) bool { return s.score > 0.5 })))
	}) / float64(n)

	// graph.Versioned on the packed base, as lgc-serve holds it: apply
	// 256-edge batches, freeze the first snapshot at half the compaction
	// threshold, compact at the threshold.
	threshold := 65536
	if e.size.maxDelta > 0 {
		threshold = e.size.maxDelta
	}
	vg := graph.NewVersioned(P, lgz)
	model := newEdgeModel(g, r)
	batches, applyNS := 0, 0.0
	applyUntil := func(pending int) error {
		for vg.Pending() < pending {
			b := model.next()
			model.applied(b)
			start := time.Now()
			_, err := vg.Apply(toEdges(b.Edges), toEdges(b.Deletes), 0)
			applyNS += since(start)
			batches++
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := applyUntil(threshold / 2); err != nil {
		return nil, err
	}
	start = time.Now()
	snap := vg.Snapshot()
	out["graph.snapshot_ms"] = since(start) / 1e6
	snap.Release()
	if err := applyUntil(threshold); err != nil {
		return nil, err
	}
	start = time.Now()
	vg.Compact(P)
	out["graph.compact_ms"] = since(start) / 1e6
	out["graph.apply_us_per_batch"] = applyNS / float64(batches) / 1e3

	// wal: appends fsynced one by one, as -wal-fsync always does.
	lg, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	const appends = 50
	start = time.Now()
	for i := 1; i <= appends; i++ {
		b := model.next()
		if err := lg.Append(&wal.Batch{Epoch: uint64(i), Vertices: uint64(n), Ins: b.Edges, Del: b.Deletes}); err != nil {
			lg.Close()
			return nil, err
		}
	}
	out["wal.append_us"] = since(start) / appends / 1e3
	if err := lg.Close(); err != nil {
		return nil, err
	}

	// core: the serve-local query in process; one 64-lane batch against 64
	// single runs; and one run each of the kernels no workload times.
	var diffuse, sweep []float64
	seeds := make([]uint32, 200)
	for i := range seeds {
		seeds[i] = uint32(r.Intn(n))
		start := time.Now()
		vec, _ := parcluster.PRNibble(g, seeds[i], parcluster.PRNibbleOptions{Alpha: alpha, Epsilon: localEps, Procs: 1})
		mid := time.Now()
		sw := parcluster.SweepCut(g, vec, parcluster.SweepOptions{Procs: 1})
		sweep = append(sweep, since(mid)/1e3)
		diffuse = append(diffuse, float64(mid.Sub(start))/1e3)
		sink += uint64(len(sw.Cluster))
	}
	out["core.local.diffuse_us"], out["core.sweep_local_us"] = median(diffuse), median(sweep)
	units := make([]parcluster.BatchUnit, batchSeeds)
	for i := range units {
		units[i] = parcluster.BatchUnit{Seeds: seeds[i : i+1]}
	}
	local := parcluster.PRNibbleOptions{Alpha: alpha, Epsilon: localEps, Procs: 1}
	out["core.batch64_s"] = best(2, func() { parcluster.PRNibbleBatch(g, units, local) }) / 1e9
	out["core.fanout64_s"] = best(2, func() {
		for _, s := range seeds[:batchSeeds] {
			parcluster.PRNibble(g, s, local)
		}
	}) / 1e9
	giant := largestComponent(g)
	v := giant[r.Intn(len(giant))]
	hkEps, walks := 3e-6, 1_000_000
	if e.size.serveN == smokeSize.serveN {
		hkEps, walks = 1e-5, 100_000
	}
	out["core.hkpr.diffuse_s.p1"] = best(1, func() { parcluster.HKPR(g, v, parcluster.HKPROptions{T: 10, N: 20, Epsilon: hkEps, Procs: 1}) }) / 1e9
	out["core.hkpr.diffuse_s.pN"] = best(1, func() { parcluster.HKPR(g, v, parcluster.HKPROptions{T: 10, N: 20, Epsilon: hkEps, Procs: P}) }) / 1e9
	out["core.nibble.diffuse_s.pN"] = best(1, func() { parcluster.Nibble(g, v, parcluster.NibbleOptions{T: 20, Epsilon: 1e-7, Procs: P}) }) / 1e9
	out["core.randhk.diffuse_s.pN"] = best(1, func() {
		parcluster.RandHKPR(g, v, parcluster.RandHKPROptions{T: 10, K: 10, Walks: walks, Seed: e.seed, Procs: P})
	}) / 1e9
	return out, nil
}

func toEdges(pairs [][2]uint32) []graph.Edge {
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{U: p[0], V: p[1]}
	}
	return out
}
