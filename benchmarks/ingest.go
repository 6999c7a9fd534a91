package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"parcluster"
)

// edgeModel is the benchmark's own account of the live graph: the base plus
// every acknowledged batch. Recovery is checked against it.
type edgeModel struct {
	base     *parcluster.Graph
	r        *rand.Rand
	override map[[2]uint32]bool // pair (u < v) to present, where it differs from or restates the base
	mine     [][2]uint32        // pairs this writer inserted and has not deleted since
}

func newEdgeModel(base *parcluster.Graph, r *rand.Rand) *edgeModel {
	return &edgeModel{base: base, r: r, override: make(map[[2]uint32]bool)}
}

// next draws a batch of ingestEdges records: a fifth deletes of the writer's
// own earlier inserts (as far as it has any), the rest inserts of uniformly
// random pairs. No pair appears twice in a batch.
func (m *edgeModel) next() ingestBatch {
	var b ingestBatch
	inBatch := make(map[[2]uint32]bool, ingestEdges)
	for len(b.Deletes) < ingestDeletes && len(m.mine) > 0 {
		i := m.r.Intn(len(m.mine))
		pair := m.mine[i]
		m.mine[i] = m.mine[len(m.mine)-1]
		m.mine = m.mine[:len(m.mine)-1]
		inBatch[pair] = true
		b.Deletes = append(b.Deletes, pair)
	}
	n := m.base.NumVertices()
	for len(b.Edges)+len(b.Deletes) < ingestEdges {
		u, v := uint32(m.r.Intn(n)), uint32(m.r.Intn(n))
		if u > v {
			u, v = v, u
		}
		pair := [2]uint32{u, v}
		if u == v || inBatch[pair] {
			continue
		}
		inBatch[pair] = true
		b.Edges = append(b.Edges, pair)
	}
	return b
}

// applied records a batch the server acknowledged.
func (m *edgeModel) applied(b ingestBatch) {
	for _, p := range b.Deletes {
		m.override[p] = false
	}
	for _, p := range b.Edges {
		m.override[p] = true
		m.mine = append(m.mine, p)
	}
}

// graph materializes the model: what the server's graph must equal.
func (m *edgeModel) graph(procs int) *parcluster.Graph {
	n := m.base.NumVertices()
	edges := make([]parcluster.Edge, 0, int(m.base.NumEdges())+len(m.override))
	for u := 0; u < n; u++ {
		for _, v := range m.base.Neighbors(uint32(u)) {
			if uint32(u) < v {
				if present, ok := m.override[[2]uint32{uint32(u), v}]; !ok || present {
					edges = append(edges, parcluster.Edge{U: uint32(u), V: v})
				}
			}
		}
	}
	for p, present := range m.override {
		if present && !m.base.HasEdge(p[0], p[1]) {
			edges = append(edges, parcluster.Edge{U: p[0], V: p[1]})
		}
	}
	return parcluster.FromEdges(procs, n, edges)
}

// writer posts the model's batches and remembers the last acknowledged
// epoch.
type writer struct {
	s     *serveRun
	c     *http.Client
	model *edgeModel
	epoch uint64
}

func (w *writer) post() error {
	b := w.model.next()
	epoch, err := postIngest(w.c, w.s.srv.base, b)
	if err != nil {
		return err
	}
	if epoch <= w.epoch {
		return fmt.Errorf("batch acknowledged at epoch %d after epoch %d", epoch, w.epoch)
	}
	w.epoch = epoch
	w.model.applied(b)
	return nil
}

// runServeIngest: an open-loop writer beside a closed-loop reader on a
// server with a WAL fsynced per batch; then a crash and recovery.
func runServeIngest(e *env) (values, *traceFile, outcome, error) {
	s := &serveRun{e: e, wal: true}
	if e.size.maxDelta > 0 {
		s.extra = []string{"-max-delta-edges", strconv.Itoa(e.size.maxDelta)}
	}
	var w *writer
	var reader *http.Client
	var seeds uniformSeeds
	var lastEpoch uint64
	run := func(until time.Time) phase {
		if w == nil {
			w = &writer{s: s, c: newClient(), model: newEdgeModel(s.gf.g, newRand(e.seed, streamIngest, 0))}
			cs, ss := s.clients(1)
			reader, seeds = cs[0], ss[0]
		}
		var p phase
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			log := openLoop(time.Now(), time.Second/ingestRate, until, func(int) error { return w.post() })
			p.side, p.late = log.opLog, log.late
		}()
		p.op = closedLoop(1, until, func(int) (time.Duration, error) {
			r, err := s.query(reader, seeds.next(), "")
			if err == nil && r.answer.Epoch < lastEpoch {
				err = fmt.Errorf("answer at epoch %d after one at epoch %d", r.answer.Epoch, lastEpoch)
			}
			lastEpoch = r.answer.Epoch
			return r.latency, err
		})
		wg.Wait()
		return p
	}
	return s.run(run, func(p phase) (latencySummary, values, error) {
		layer, err := s.crashAndRecover(w)
		return summarize(ms(p.side.latencies), serveTail), layer, err
	})
}

// crashAndRecover fixes how much there is to recover — batches until the
// next compaction has checkpointed, then a tail of fixed length — kills the
// server, and restarts it on the same WAL directory, several times for a
// median. A recovered server must be at the last acknowledged epoch and
// answer as the library does on the model graph.
func (s *serveRun) crashAndRecover(w *writer) (values, error) {
	c := newClient()
	st, err := s.srv.stats(c)
	if err != nil {
		return nil, err
	}
	checkpoints := st.Wal.Checkpoints
	limit := 2*65536/ingestEdges + 64
	for i := 0; st.Wal.Checkpoints == checkpoints; i++ {
		if i == limit {
			return nil, fmt.Errorf("no compaction checkpoint after %d more batches (pending %d)", limit, st.Ingest.Pending)
		}
		s.out.check("ingest before crash", w.post())
		if st, err = s.srv.stats(c); err != nil {
			return nil, err
		}
	}
	for i := 0; i < s.e.size.tailBatches; i++ {
		s.out.check("ingest tail", w.post())
	}
	compactions := st.Ingest.Compactions
	ckptBytes := checkpointBytes(s.walDir)

	s.restarts = s.restarts[:0] // restart_s of this workload is recovery alone
	var replayMS []float64
	for i := 0; i <= s.e.size.restarts/2; i++ {
		s.srv.kill()
		if err := s.start(); err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		var listing struct {
			Graphs []parcluster.GraphCatalogInfo `json:"graphs"`
		}
		if err := getJSON(c, s.srv.base+"/v1/graphs", &listing); err != nil {
			return nil, err
		}
		err := fmt.Errorf("graph g not listed")
		for _, gi := range listing.Graphs {
			if gi.Name == "g" {
				err = nil
				if gi.Epoch != w.epoch {
					err = fmt.Errorf("recovered at epoch %d, last acknowledged was %d", gi.Epoch, w.epoch)
				}
			}
		}
		s.out.check("recovered epoch", err)
		if st, err = s.srv.stats(c); err != nil {
			return nil, err
		}
		replayMS = append(replayMS, st.Wal.ReplayMS)
	}

	model := w.model.graph(s.e.procs)
	r := newRand(s.e.seed, streamSample, 2)
	for i := 0; i < s.e.size.samples/4; i++ {
		seed := uint32(r.Intn(model.NumVertices()))
		rep, err := s.query(c, seed, "")
		if err == nil && rep.answer.Edges != model.NumEdges() {
			err = fmt.Errorf("recovered graph has %d edges, the model %d", rep.answer.Edges, model.NumEdges())
		}
		if err == nil {
			err = checkAgainstLibrary(model, seed, &rep.answer.Results[0])
		}
		s.out.check("recovered answer", err)
	}
	return values{
		"service.compactions":  float64(compactions),
		"wal.replay_ms":        median(replayMS),
		"wal.checkpoint_bytes": ckptBytes,
	}, nil
}

// checkpointBytes sizes the newest checkpoint file under the WAL directory.
func checkpointBytes(walDir string) float64 {
	matches, _ := filepath.Glob(filepath.Join(walDir, "*", "ckpt-*")) // the pattern is well-formed
	var newest os.FileInfo
	for _, m := range matches {
		if fi, err := os.Stat(m); err == nil && (newest == nil || fi.ModTime().After(newest.ModTime())) {
			newest = fi
		}
	}
	if newest == nil {
		return 0
	}
	return float64(newest.Size())
}
