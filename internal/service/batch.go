package service

import (
	"time"

	"parcluster/internal/core"
	"parcluster/internal/sparse"
)

// This file is what a request planned wider than one unit per group adds to
// the pipeline in engine.go: the eligibility rule and the lane kernel. Up to
// Config.BatchLanes same-parameter units of one multi-seed request share a
// single edge traversal (core.NibbleBatch / core.PRNibbleBatch); every other
// station — lookup, tokens, discard-if-cancelled, sweep, cache population,
// flight coalescing, NDJSON delivery, arena ownership — is request.runGroup,
// whatever the width, so the two are observationally identical.

// batchEligible reports whether a request's units may share bit-parallel
// traversals. Requires the engine to have lanes configured, more than one
// unit to coalesce, no client opt-out, and a lane kernel for the algorithm:
// nibble always, prnibble only in its full-frontier form (beta 0 or 1 — the
// beta-fraction variant ranks vertices across the whole frontier, which has
// no per-lane analogue).
func (e *Engine) batchEligible(rp resolved, req *ClusterRequest, nunits int) bool {
	if e.batchLanes <= 1 || nunits <= 1 || req.Params.Batching == "off" {
		return false
	}
	switch rp.algo {
	case "nibble":
		return true
	case "prnibble":
		return rp.p.Beta == 0 || rp.p.Beta == 1
	default:
		return false
	}
}

// runLanes is the kernel of a group planned wider than one: every lane's
// diffusion in one shared bit-parallel traversal, under one "kernel" span.
// It returns the per-lane vectors and statistics, in lane order.
func (r *request) runLanes(lanes []*lane) ([]*sparse.Map, []core.Stats) {
	e, p := r.sc.e, r.rp.p
	e.batchGroups.Add(1)
	e.batchLanesFilled.Add(int64(len(lanes)))
	e.batchTraversalsSaved.Add(int64(len(lanes) - 1))
	bunits := make([]core.BatchUnit, len(lanes))
	for j, l := range lanes {
		bunits[j] = core.BatchUnit{Seeds: r.units[l.idx], Result: l.arena, Observer: kernelObserver(r.sc.tr, l.idx)}
	}
	cfg := core.BatchConfig{Procs: r.procs, Frontier: r.rp.frontier, Workspace: r.sc.pin.Pool, Cancel: r.sc.ctx.Done()}
	defer r.kernelDone(time.Now())
	switch r.rp.algo {
	case "nibble":
		return core.NibbleBatch(r.sc.pin.G, bunits, p.Epsilon, p.T, cfg)
	case "prnibble":
		return core.PRNibbleBatch(r.sc.pin.G, bunits, p.Alpha, p.Epsilon, r.rp.rule(), cfg)
	default:
		panic("service: unbatchable algo " + r.rp.algo) // batchEligible gates entry
	}
}
