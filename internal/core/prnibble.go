package core

import (
	"container/heap"

	"parcluster/internal/graph"
	"parcluster/internal/sparse"
)

// prnibble.go implements the sequential PR-Nibble algorithm of Andersen,
// Chung and Lang [2] (§3.3): repeatedly push approximate-PageRank mass from
// any vertex whose residual satisfies r(v) >= eps*d(v), until none remains.
// Both the original push rule and the paper's optimized rule (§3.3 "An
// Optimization", Figure 6) are provided; the optimized rule empties the
// pushed vertex's residual entirely and is 1.4–6.4x faster in the paper's
// Figure 4. The work bound for either rule is O(1/(eps*alpha)).

// PushRule selects the PR-Nibble update rule.
type PushRule int

const (
	// OriginalRule is the push of Andersen et al. [2]:
	//   p[v] += alpha*r[v];  r[w] += (1-alpha)*r[v]/(2*d(v));  r[v] = (1-alpha)*r[v]/2.
	OriginalRule PushRule = iota
	// OptimizedRule is the paper's aggressive variant:
	//   p[v] += (2*alpha/(1+alpha))*r[v];  r[w] += ((1-alpha)/(1+alpha))*r[v]/d(v);  r[v] = 0.
	OptimizedRule
)

// String returns the rule's wire name ("original" or "optimized").
func (r PushRule) String() string {
	if r == OriginalRule {
		return "original"
	}
	return "optimized"
}

// ruleCoefficients returns (pGain, edgeShare, selfKeep): a push moves
// pGain*r[v] into p, sends edgeShare*r[v]/d(v) to each neighbor, and leaves
// selfKeep*r[v] in r[v].
func (r PushRule) coefficients(alpha float64) (pGain, edgeShare, selfKeep float64) {
	switch r {
	case OriginalRule:
		return alpha, (1 - alpha) / 2, (1 - alpha) / 2
	default:
		return 2 * alpha / (1 + alpha), (1 - alpha) / (1 + alpha), 0
	}
}

// PRNibbleSeq runs sequential PR-Nibble with teleportation parameter alpha
// and threshold eps, using the given push rule; the initial residual is
// split evenly over the seed set (footnote 5 of the paper). It returns the
// PageRank vector p for the sweep cut. Work: O(1/(eps*alpha)).
//
// As in [2], vertices with r(v) >= eps*d(v) wait in a FIFO queue; a popped
// vertex is pushed repeatedly until it falls below threshold (a single push
// suffices under the optimized rule, which zeroes the residual).
func PRNibbleSeq(g graph.Graph, seeds []uint32, alpha, eps float64, rule PushRule) (*sparse.Map, Stats) {
	seeds = normalizeSeeds(g, seeds)
	var st Stats
	pGain, edgeShare, selfKeep := rule.coefficients(alpha)
	p := sparse.NewMap(16)
	r := sparse.NewMap(len(seeds))
	w := 1 / float64(len(seeds))
	for _, s := range seeds {
		r.Set(s, w)
	}
	above := func(v uint32) bool { return r.Get(v) >= eps*float64(g.Degree(v)) }
	queue := make([]uint32, 0, len(seeds))
	inQueue := sparse.NewMap(len(seeds)) // 1 if v is queued
	for _, s := range seeds {
		if above(s) && g.Degree(s) > 0 {
			queue = append(queue, s)
			inQueue.Set(s, 1)
		}
	}
	var adj []uint32
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		inQueue.Delete(v)
		ns := g.NeighborsInto(adj, v)
		adj = ns
		d := float64(len(ns))
		for above(v) {
			rv := r.Get(v)
			p.Add(v, pGain*rv)
			share := edgeShare * rv / d
			for _, w := range ns {
				r.Add(w, share)
			}
			r.Set(v, selfKeep*rv)
			st.Pushes++
			st.Iterations++
			st.EdgesTouched += int64(len(ns))
			for _, w := range ns {
				if above(w) && inQueue.Get(w) == 0 && g.Degree(w) > 0 {
					queue = append(queue, w)
					inQueue.Set(w, 1)
				}
			}
		}
	}
	return p, st
}

// residHeap orders queued vertices by their r(v)/d(v) priority at insertion
// time, largest first.
type residHeap struct {
	vs    []uint32
	prios []float64
}

func (h *residHeap) Len() int           { return len(h.vs) }
func (h *residHeap) Less(i, j int) bool { return h.prios[i] > h.prios[j] }
func (h *residHeap) Swap(i, j int) {
	h.vs[i], h.vs[j] = h.vs[j], h.vs[i]
	h.prios[i], h.prios[j] = h.prios[j], h.prios[i]
}
func (h *residHeap) Push(x any) {
	e := x.([2]float64)
	h.vs = append(h.vs, uint32(e[0]))
	h.prios = append(h.prios, e[1])
}
func (h *residHeap) Pop() any {
	n := len(h.vs)
	v := h.vs[n-1]
	h.vs = h.vs[:n-1]
	h.prios = h.prios[:n-1]
	return v
}

// PRNibbleSeqPQ is the priority-queue variant the paper tried (§3.3):
// identical to PRNibbleSeq but popping the queued vertex with the highest
// r(v)/d(v) at insertion time. The paper found it "did not help much in
// practice"; it is kept for the corresponding ablation benchmark.
func PRNibbleSeqPQ(g graph.Graph, seed uint32, alpha, eps float64, rule PushRule) (*sparse.Map, Stats) {
	checkSeed(g, seed)
	var st Stats
	pGain, edgeShare, selfKeep := rule.coefficients(alpha)
	p := sparse.NewMap(16)
	r := sparse.NewMap(16)
	r.Set(seed, 1)
	above := func(v uint32) bool { return r.Get(v) >= eps*float64(g.Degree(v)) }
	h := &residHeap{}
	inQueue := sparse.NewMap(16)
	if above(seed) && g.Degree(seed) > 0 {
		heap.Push(h, [2]float64{float64(seed), 1 / float64(g.Degree(seed))})
		inQueue.Set(seed, 1)
	}
	var adj []uint32
	for h.Len() > 0 {
		v := heap.Pop(h).(uint32)
		inQueue.Delete(v)
		ns := g.NeighborsInto(adj, v)
		adj = ns
		d := float64(len(ns))
		for above(v) {
			rv := r.Get(v)
			p.Add(v, pGain*rv)
			share := edgeShare * rv / d
			for _, w := range ns {
				r.Add(w, share)
			}
			r.Set(v, selfKeep*rv)
			st.Pushes++
			st.Iterations++
			st.EdgesTouched += int64(len(ns))
			for _, w := range ns {
				if above(w) && inQueue.Get(w) == 0 && g.Degree(w) > 0 {
					heap.Push(h, [2]float64{float64(w), r.Get(w) / float64(g.Degree(w))})
					inQueue.Set(w, 1)
				}
			}
		}
	}
	return p, st
}
