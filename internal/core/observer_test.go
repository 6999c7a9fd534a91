package core

// observer_test.go pins the Observer hook's two contracts: (1) a nil
// observer is free — the pooled dense steady-state path allocates nothing
// per run, so the hook costs the serving hot path zero bytes; (2) a real
// observer sees every synchronous round with the same counters Stats
// aggregates, in round order, with the engine's actual sparse/dense
// decision.

import (
	"fmt"
	"testing"

	"parcluster/internal/gen"
	"parcluster/internal/sparse"
	"parcluster/internal/workspace"
)

// roundEvent records one Observer.Round call.
type roundEvent struct {
	round, frontier int
	pushes, edges   int64
	dense           bool
}

// recordingObserver collects every round event in order.
type recordingObserver struct {
	events []roundEvent
}

func (o *recordingObserver) Round(round, frontier int, pushes, edges int64, dense bool) {
	o.events = append(o.events, roundEvent{round, frontier, pushes, edges, dense})
}

// noopObserver is the cheapest possible non-nil observer, for overhead
// benchmarks.
type noopObserver struct{}

func (noopObserver) Round(round, frontier int, pushes, edges int64, dense bool) {}

func TestObserverSeesEveryRound(t *testing.T) {
	for name, g := range frontierFixtures() {
		for _, mode := range frontierModes() {
			rec := &recordingObserver{}
			_, st := PRNibbleRun(g, []uint32{0}, 0.05, 1e-6, OptimizedRule, 1,
				RunConfig{Procs: 4, Frontier: mode, Observer: rec})
			if len(rec.events) != int(st.Iterations) {
				t.Fatalf("%s/%v: %d events, Stats.Iterations = %d", name, mode, len(rec.events), st.Iterations)
			}
			var pushes, edges int64
			for i, ev := range rec.events {
				if ev.round != i {
					t.Fatalf("%s/%v: event %d has round %d (want in-order rounds)", name, mode, i, ev.round)
				}
				if ev.frontier <= 0 {
					t.Fatalf("%s/%v round %d: frontier %d", name, mode, i, ev.frontier)
				}
				switch mode {
				case FrontierSparse:
					if ev.dense {
						t.Fatalf("%s/%v round %d: dense event under forced sparse", name, mode, i)
					}
				case FrontierDense:
					if !ev.dense {
						t.Fatalf("%s/%v round %d: sparse event under forced dense", name, mode, i)
					}
				}
				pushes += ev.pushes
				edges += ev.edges
			}
			if pushes != st.Pushes || edges != st.EdgesTouched {
				t.Fatalf("%s/%v: per-round sums pushes=%d edges=%d, Stats %d/%d",
					name, mode, pushes, edges, st.Pushes, st.EdgesTouched)
			}
		}
	}
}

func TestObserverDoesNotChangeResults(t *testing.T) {
	g := frontierFixtures()["community"]
	seeds := []uint32{0, 1, 2, 3}
	const eps = 1e-5
	for _, mode := range frontierModes() {
		for _, procs := range []int{1, 4} {
			cfg := RunConfig{Procs: procs, Frontier: mode}
			run := func() (*sparse.Vector, Stats) {
				return PRNibbleRun(g, seeds, 0.02, eps, OptimizedRule, 1, cfg)
			}
			base := runKernel(run)
			cfg.Observer = &recordingObserver{}
			observed := runKernel(run)
			requireEquivalentRuns(t, fmt.Sprintf("%v/p%d", mode, procs), g, deterministicRun(cfg), eps, base, observed)
		}
	}
}

func TestRandHKObserverEmitsSummaryEvent(t *testing.T) {
	g := gen.Caveman(12, 8)
	rec := &recordingObserver{}
	_, st := RandHKPRRun(g, []uint32{0}, 10, 10, 500, 42,
		RunConfig{Procs: 4, Observer: rec})
	if len(rec.events) != 1 {
		t.Fatalf("%d events, want one synthetic walk-phase summary", len(rec.events))
	}
	ev := rec.events[0]
	if ev.frontier != 500 || ev.pushes != st.Pushes || ev.edges != st.EdgesTouched || ev.dense {
		t.Fatalf("summary event = %+v, stats = %+v", ev, st)
	}
}

// TestNilObserverZeroAllocs is the hook's cost contract: on the pooled
// dense steady-state path (workspace pool warm, sequential schedule) the
// Observer hook adds zero heap allocations per run — a run with the
// cheapest enabled observer allocates exactly what a nil-observer run does,
// so a fortiori the nil check itself costs untraced production requests
// nothing.
func TestNilObserverZeroAllocs(t *testing.T) {
	g := gen.Caveman(12, 8)
	pool := workspace.NewPool(g.NumVertices())
	run := func(obs Observer) func() {
		cfg := RunConfig{Procs: 1, Frontier: FrontierDense, Workspace: pool, Observer: obs}
		return func() {
			PRNibbleRun(g, []uint32{0}, 0.05, 1e-6, OptimizedRule, 1, cfg)
		}
	}
	base := testing.AllocsPerRun(20, run(nil))
	withObs := testing.AllocsPerRun(20, run(noopObserver{}))
	if withObs != base {
		t.Fatalf("observer hook costs allocations: %.1f objects/op enabled vs %.1f with nil", withObs, base)
	}
	// Sanity cap: the pooled dense run's remaining allocations are a small
	// per-round constant (ligra's traversal closures and subset
	// conversions). Budget by the run's actual round count so a
	// reintroduced per-push or per-vertex allocation — orders of magnitude
	// past any per-round constant on this fixture — still fails loudly.
	rec := &recordingObserver{}
	cfg := RunConfig{Procs: 1, Frontier: FrontierDense, Workspace: pool, Observer: rec}
	PRNibbleRun(g, []uint32{0}, 0.05, 1e-6, OptimizedRule, 1, cfg)
	if budget := float64(24*len(rec.events) + 64); base > budget {
		t.Fatalf("nil-observer pooled dense run allocates %.1f objects/op over %d rounds (budget %.0f)",
			base, len(rec.events), budget)
	}
}

// BenchmarkObserverOverhead compares the steady-state kernel with no
// observer against the cheapest non-nil one; the delta bounds what the
// tracing hook costs a traced request, and bytes/op proves the nil case
// adds nothing.
func BenchmarkObserverOverhead(b *testing.B) {
	g := gen.CommunityGraph(1, 5000, 12, 6, 50, 200, 2.5, 23)
	pool := workspace.NewPool(g.NumVertices())
	for _, bc := range []struct {
		name string
		obs  Observer
	}{
		{"nil", nil},
		{"noop", noopObserver{}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := RunConfig{Procs: 1, Frontier: FrontierDense, Workspace: pool, Observer: bc.obs}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				PRNibbleRun(g, []uint32{0}, 0.05, 1e-6, OptimizedRule, 1, cfg)
			}
		})
	}
}
