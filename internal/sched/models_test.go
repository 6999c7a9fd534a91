package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock installs a manually-advanced clock on s and returns the
// advance function.
func fakeClock(s *Scheduler) func(time.Duration) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	s.now = func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	return func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
}

// runUnit admits one (graph, algo) unit, holds the token for dur, and
// releases — teaching the scheduler that pair's service time.
func runUnit(t *testing.T, s *Scheduler, graph, algo string, dur time.Duration, advance func(time.Duration)) {
	t.Helper()
	tk, err := s.Admit(Interactive, graph, algo, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tk.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	advance(dur)
	g.Release()
	tk.Close()
}

// TestServiceModelsPerGraphAlgo pins the reason wait estimates moved off
// the single per-class EWMA: a class that has served both 100ms and 1ms
// units has a blended EWMA near the slow end, but a queued waiter is
// charged the model of the (graph, algo) pair it actually targets — so a
// backlog of fast units no longer rejects deadlines only the blended
// average would miss, and a backlog of slow units still rejects them.
func TestServiceModelsPerGraphAlgo(t *testing.T) {
	s := New(Config{Tokens: 1})
	advance := fakeClock(s)

	// Teach two very different services: 100ms nibble units on "huge",
	// 1ms hkpr units on "tiny". The class EWMA blends to ~88ms.
	runUnit(t, s, "huge", "nibble", 100*time.Millisecond, advance)
	runUnit(t, s, "tiny", "hkpr", time.Millisecond, advance)
	if st := s.Stats(); st.ServiceModels != 2 {
		t.Fatalf("ServiceModels = %d, want 2", st.ServiceModels)
	}

	// Occupy the only token, then queue one *tiny* unit behind it.
	hold, err := s.Admit(Interactive, "tiny", "hkpr", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	gHold, err := hold.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	queue := func(graph, algo string) (*Ticket, chan error) {
		tk, err := s.Admit(Interactive, graph, algo, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			g, err := tk.Acquire(context.Background(), 1)
			if err == nil {
				g.Release()
			}
			done <- err
		}()
		return tk, done
	}
	tkFast, fastDone := queue("tiny", "hkpr")
	for s.Stats().Classes[Interactive].QueueDepth < 1 {
		time.Sleep(time.Millisecond)
	}

	// The queued unit's own model says ~1ms of backlog; a 20ms deadline
	// is meetable even though the class EWMA alone (~88ms) would reject it.
	tk, err := s.Admit(Interactive, "huge", "nibble", s.now().Add(20*time.Millisecond))
	if err != nil {
		t.Fatalf("fast-model backlog rejected a meetable deadline: %v", err)
	}
	tk.Close()

	// Add a *huge* unit to the queue: its 100ms model dominates the
	// estimate and the same deadline is now unmeetable.
	tkSlow, slowDone := queue("huge", "nibble")
	for s.Stats().Classes[Interactive].QueueDepth < 2 {
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Admit(Interactive, "huge", "nibble", s.now().Add(20*time.Millisecond)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("slow-model backlog admit = %v, want ErrDeadlineExceeded", err)
	}

	gHold.Release()
	hold.Close()
	for _, done := range []chan error{fastDone, slowDone} {
		if err := <-done; err != nil {
			t.Fatalf("queued waiter failed: %v", err)
		}
	}
	tkFast.Close()
	tkSlow.Close()
}

// TestReleaseUnitsFeedsPerUnitCost pins the batch contract: a grant that
// served N units in one run divides its duration by N before feeding the
// models, and advances the completion counter by N.
func TestReleaseUnitsFeedsPerUnitCost(t *testing.T) {
	s := New(Config{Tokens: 1})
	advance := fakeClock(s)

	tk, err := s.Admit(Interactive, "g", "nibble", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := tk.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	advance(80 * time.Millisecond)
	g.ReleaseUnits(8)
	tk.Close()

	if got := s.Stats().Classes[Interactive].Completed; got != 8 {
		t.Fatalf("Completed = %d, want 8", got)
	}
	s.mu.Lock()
	model := s.models["g|nibble"]
	ewma := s.classes[Interactive].ewmaUS
	s.mu.Unlock()
	if model != 10_000 {
		t.Fatalf("model unit estimate = %dus, want 10000 (80ms / 8 units)", model)
	}
	if ewma != 10_000 {
		t.Fatalf("class EWMA = %dus, want 10000", ewma)
	}
}

// TestAbandonTeachesNothing pins the cancelled-run contract: a grant handed
// back with Abandon returns its tokens and in-flight accounting but leaves
// the class EWMA, the (graph, algo) model and the completion counter exactly
// as they were — a truncated duration is not a service time. A second
// release of the same grant, by any spelling, still panics.
func TestAbandonTeachesNothing(t *testing.T) {
	s := New(Config{Tokens: 1})
	advance := fakeClock(s)
	runUnit(t, s, "g", "nibble", 40*time.Millisecond, advance)

	tk, err := s.Admit(Interactive, "g", "nibble", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Close()
	cancelled, err := tk.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := s.Admit(Interactive, "h", "prnibble", time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	advance(time.Millisecond) // cut short long before the 40ms the work takes
	cancelled.Abandon()

	st := s.Stats()
	if st.Avail != 1 || len(st.GraphInFlight) != 0 {
		t.Fatalf("tokens not returned: avail %d, in flight %v", st.Avail, st.GraphInFlight)
	}
	if got := st.Classes[Interactive].Completed; got != 1 {
		t.Fatalf("Completed = %d, want 1 (the abandoned run finished nothing)", got)
	}
	if st.ServiceModels != 1 {
		t.Fatalf("ServiceModels = %d, want 1", st.ServiceModels)
	}
	s.mu.Lock()
	model, ewma := s.models["g|nibble"], s.classes[Interactive].ewmaUS
	s.mu.Unlock()
	if model != 40_000 || ewma != 40_000 {
		t.Fatalf("model %dus, class EWMA %dus; want both still 40000", model, ewma)
	}

	// A pair whose only run was abandoned has no model at all.
	g, err := other.Acquire(context.Background(), 1)
	if err != nil {
		t.Fatalf("abandoned tokens not grantable: %v", err)
	}
	g.Abandon()
	if got := s.Stats().ServiceModels; got != 1 {
		t.Fatalf("ServiceModels = %d after an abandoned first run, want 1", got)
	}
	for name, again := range map[string]func(){"Abandon": g.Abandon, "Release": g.Release} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Abandon did not panic", name)
				}
			}()
			again()
		}()
	}
}

// TestServiceModelCap pins the bound on model-table growth: past
// maxServiceModels distinct (graph, algo) pairs, new pairs fall back to
// the class EWMA instead of inserting.
func TestServiceModelCap(t *testing.T) {
	s := New(Config{Tokens: 1})
	advance := fakeClock(s)
	for i := 0; i < maxServiceModels+10; i++ {
		runUnit(t, s, fmt.Sprintf("g%d", i), "nibble", time.Millisecond, advance)
	}
	if got := s.Stats().ServiceModels; got != maxServiceModels {
		t.Fatalf("ServiceModels = %d, want the cap %d", got, maxServiceModels)
	}
}
