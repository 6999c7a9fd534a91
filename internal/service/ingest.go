// ingest.go is the mutation side of the engine: live edge batches applied
// through the registry's graph.Versioned overlays (POST
// /v1/graphs/{name}/edges), and the background compactor that folds the
// accumulated delta logs into fresh base CSRs. Queries never see either
// happen mid-flight — they run against the epoch's view pinned at
// admission (Registry.Acquire), and the epoch is part of every cache key,
// so a mutation invalidates nothing: stale entries simply stop being
// addressed and age out of the LRU.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"time"

	"parcluster/internal/api"
	"parcluster/internal/graph"
	"parcluster/internal/sched"
)

// Ingest-size bounds, in the same spirit as the query caps: one batch must
// not be able to monopolize the server (oversized streams belong in
// multiple batches), and a hostile vertices value must not allocate an
// offsets array of arbitrary size for the next epoch's view, which holds
// one offset per vertex.
const (
	maxIngestRecords  = 1 << 20
	maxIngestVertices = 1 << 28
)

// Ingest applies one atomic batch of edge mutations to a registered graph
// and returns the epoch the batch produced. The whole batch validates
// before anything applies: a single bad record (self loop, endpoint outside
// the universe) rejects it with a 400-mapped error and mutates nothing. A
// durable-commit failure (the WAL could not persist the batch) rejects it
// too, as a 500-mapped server fault. Ingesting into a registered-but-
// unloaded graph loads it first.
//
// The whole apply runs under a scheduler ticket — admission-only, no
// worker tokens, so batches never contend with kernels — which is what
// ties ingestion into the drain protocol: a draining engine refuses new
// batches at Admit (503), and Drained does not report quiescence until
// every in-flight apply has closed its ticket. Checking Draining() and
// then applying ticketless would let a batch slip through after drain
// flips and mutate (post-WAL: write to disk) after quiescence was
// announced.
//
// A batch that crosses the engine's pending-delta threshold kicks the
// background compactor instead of folding inline, so ingest latency stays
// proportional to the batch, not the graph. So does the first batch that
// lands on a packed (.lgz) base: a view reads every list of a packed base
// through the decoder, slower than a heap list, so a written graph is
// flattened to a heap CSR once and then read as heap base plus patch.
func (e *Engine) Ingest(ctx context.Context, graphName string, req *api.IngestRequest) (*api.IngestResponse, error) {
	if graphName == "" {
		return nil, fmt.Errorf("%w: missing graph name", ErrBadRequest)
	}
	total := len(req.Edges) + len(req.Deletes)
	if total == 0 && req.Vertices == 0 {
		return nil, fmt.Errorf("%w: empty ingest batch", ErrBadRequest)
	}
	if total > maxIngestRecords {
		return nil, fmt.Errorf("%w: %d records exceeds the per-batch maximum %d", ErrBadRequest, total, maxIngestRecords)
	}
	if req.Vertices < 0 || req.Vertices > maxIngestVertices {
		return nil, fmt.Errorf("%w: vertices %d outside [0, %d]", ErrBadRequest, req.Vertices, maxIngestVertices)
	}
	ticket, err := e.sched.Admit(sched.Interactive, graphName, "ingest", time.Time{})
	if err != nil {
		return nil, err
	}
	defer ticket.Close()
	vg, err := e.reg.Versioned(ctx, graphName)
	if err != nil {
		return nil, err
	}
	st, err := vg.Apply(toEdges(req.Edges), toEdges(req.Deletes), req.Vertices)
	if err != nil {
		if errors.Is(err, graph.ErrCommit) {
			return nil, err // durability fault: the client's batch was fine
		}
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if st.Packed || e.maxDeltaEdges > 0 && st.Pending >= e.maxDeltaEdges {
		e.kickCompactor()
	}
	// Epoch, Vertices and Pending all come from Apply's own critical
	// section: a concurrent later batch or compaction cannot leak into the
	// response describing this one.
	return &api.IngestResponse{
		Graph:    graphName,
		Epoch:    st.Epoch,
		Vertices: st.Vertices,
		Inserted: len(req.Edges),
		Deleted:  len(req.Deletes),
		Pending:  st.Pending,
	}, nil
}

func toEdges(pairs [][2]uint32) []graph.Edge {
	if len(pairs) == 0 {
		return nil
	}
	out := make([]graph.Edge, len(pairs))
	for i, p := range pairs {
		out[i] = graph.Edge{U: p[0], V: p[1]}
	}
	return out
}

// kickCompactor requests an immediate compaction pass; a pass already
// requested (or running) absorbs the kick.
func (e *Engine) kickCompactor() {
	select {
	case e.compactKick <- struct{}{}:
	default:
	}
}

// compactor is the background fold loop: every interval (or immediately on
// kick) it walks the loaded graphs and folds any pending deltas. It exits
// when Engine.Close cancels compactCtx.
func (e *Engine) compactor(interval time.Duration) {
	defer close(e.compactDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-e.compactCtx.Done():
			return
		case <-t.C:
		case <-e.compactKick:
		}
		e.compactAll()
	}
}

// compactAll folds every loaded graph with pending deltas, each fold
// admitted through the scheduler as background-class work: compactions
// yield to queries under load, and a draining engine refuses them at
// admission — so Drained is never held back by a fold that hasn't started,
// while one already holding a ticket finishes and is waited for.
func (e *Engine) compactAll() {
	for name, l := range e.reg.versioned() {
		if l.vg.Pending() == 0 {
			continue
		}
		e.compactGraph(name, l)
	}
}

// compactGraph folds one graph's delta log under a scheduler ticket, then
// checkpoints the fold into the graph's WAL (when one is attached).
// Admission failure (draining, class saturated) just skips the fold — the
// deltas stay queryable through snapshots and the next pass retries.
func (e *Engine) compactGraph(name string, l *load) {
	ticket, err := e.sched.Admit(sched.Background, name, "compact", time.Time{})
	if err != nil {
		return
	}
	defer ticket.Close()
	grant, err := ticket.Acquire(e.compactCtx, 1)
	if err != nil {
		return
	}
	start := time.Now()
	folded, _ := l.vg.Compact(1) // one token acquired, one worker used
	grant.Release()
	if folded {
		e.metrics.kernelDur.With("compact").Observe(time.Since(start))
		if err := checkpointWAL(l); err != nil {
			// A failed checkpoint is not data loss — the log retains every
			// batch and the next fold retries — but it is worth a warning.
			slog.Default().Warn("wal checkpoint failed", "graph", name, "err", err)
		}
	}
}

// checkpointWAL persists the graph's current snapshot into its WAL and
// truncates the covered segments. Batches applied between the fold and the
// snapshot pin are harmless: the snapshot is still a complete edge set at
// its epoch, and replay resumes from the batch after it. A failed
// checkpoint only costs replay time — the log retains everything.
func checkpointWAL(l *load) error {
	if l.wal == nil {
		return nil
	}
	snap := l.vg.Snapshot()
	defer snap.Release()
	return l.wal.Checkpoint(snap.Epoch(), func(w io.Writer) error {
		return graph.WriteBinary(w, snap.Graph())
	})
}

// CompactNow synchronously folds every graph's pending deltas (and
// checkpoints attached WALs), bypassing the scheduler — a test and
// shutdown hook, not a serving-path API.
func (e *Engine) CompactNow() {
	for _, l := range e.reg.versioned() {
		l.vg.Compact(e.resolveProcs(0))
		_ = checkpointWAL(l) // best effort; the log retains everything
	}
}
