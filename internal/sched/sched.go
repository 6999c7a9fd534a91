// Package sched implements the request scheduler of the parcluster serving
// layer: the admission-control and worker-token layer every query passes
// through before it may run a kernel.
//
// The predecessor of this package was a plain FIFO proc-token pool: fair,
// starvation-free, and exactly wrong for the paper's workload. Local
// clustering is pitched (§1) as the interactive alternative to global
// algorithms — many cheap seed-local queries against a huge shared graph —
// which in a shared service means latency-diverse traffic: an analyst's
// single-seed query queueing behind a 10^4-seed batch sweep. A FIFO pool
// serves that mix worst; this scheduler serves it on purpose:
//
//   - Weighted priority classes. Every request carries a Class
//     (Interactive, Batch, Background). Token grants are interleaved by
//     stride scheduling: class i receives grants in proportion to its
//     configured weight whenever it has queued work, so a saturating batch
//     backlog slows interactive queries by a bounded factor instead of a
//     queue-length factor.
//   - Deadlines with admission control. A request may carry a deadline.
//     Work whose deadline has already passed — or that the scheduler
//     estimates cannot start in time, based on per-(graph, algorithm)
//     EWMAs of observed unit service times (falling back to the class
//     average until a pair has history) and the queue ahead of it — is
//     rejected at admission
//     with a structured error instead of wasting tokens on an answer nobody
//     will read. A waiter whose deadline expires while queued is failed at
//     wake-up time, and running kernels observe the same deadline through
//     core.RunConfig.Cancel.
//   - Per-graph fairness. Within a class, queued units are served
//     round-robin across graphs (FIFO within a graph), so one hot graph
//     cannot starve queries against the others.
//   - Bounded queues. Each class admits at most Config.MaxQueue concurrent
//     requests (queued + running); past that, Admit fails fast with a
//     QueueFullError carrying a Retry-After hint, which the HTTP layer maps
//     to 429. Backpressure replaces unbounded queue growth.
//   - Drain. BeginDrain stops admission (ErrDraining, a 503) while letting
//     admitted work finish; Drained unblocks when the last ticket closes —
//     the graceful-shutdown path of cmd/lgc-serve.
//
// Starvation and head-of-line policy: within a class the queue is FIFO per
// graph, and across classes the stride pass values guarantee every backlogged
// class a weight-proportional share, so nothing starves. When the class
// chosen by the stride clock has a head waiter too wide for the available
// tokens, granting stops until tokens free up (no bypass) — the same
// utilization-for-no-starvation trade the FIFO pool made, now confined to
// one class's turn.
package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Class is a request priority class.
type Class uint8

// The priority classes, highest default weight first. The zero value is
// Interactive: an unlabelled request is someone waiting for the answer.
const (
	// Interactive is the latency-sensitive class: single-seed or small
	// queries an analyst is waiting on.
	Interactive Class = iota
	// Batch is the throughput class: large multi-seed fan-outs and NCP
	// profiles whose callers care about completion, not tail latency.
	Batch
	// Background is the scavenger class: prefetch, cache warming, anything
	// that should only consume tokens nothing else wants.
	Background
	// NumClasses is the number of priority classes.
	NumClasses = 3
)

// String returns the class's wire spelling.
func (c Class) String() string {
	switch c {
	case Batch:
		return "batch"
	case Background:
		return "background"
	default:
		return "interactive"
	}
}

// ParseClass converts a wire spelling to a Class. The empty string means
// Interactive.
func ParseClass(s string) (Class, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	case "background":
		return Background, nil
	}
	return Interactive, fmt.Errorf("sched: unknown class %q (want interactive, batch or background)", s)
}

// Sentinel errors. The HTTP layer maps ErrQueueFull to 429 (with the
// QueueFullError's Retry-After hint), ErrDeadlineExceeded to 504, and
// ErrDraining to 503.
var (
	// ErrQueueFull reports that a class's admission bound is reached.
	ErrQueueFull = errors.New("sched: queue full")
	// ErrDeadlineExceeded reports a deadline that has passed — or, at
	// admission, one the scheduler estimates cannot be met.
	ErrDeadlineExceeded = errors.New("sched: deadline exceeded")
	// ErrDraining reports that the scheduler has stopped admitting work.
	ErrDraining = errors.New("sched: draining, not admitting new work")
)

// QueueFullError is the ErrQueueFull instance carrying the backpressure
// hint: how long a client should wait before retrying, estimated from the
// class's observed service rate.
type QueueFullError struct {
	// Class is the class whose bound was hit.
	Class Class
	// RetryAfter is the suggested client backoff.
	RetryAfter time.Duration
}

// Error implements error.
func (e *QueueFullError) Error() string {
	return fmt.Sprintf("sched: %s queue full, retry after %s", e.Class, e.RetryAfter)
}

// Is makes errors.Is(err, ErrQueueFull) match.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// Config sizes a Scheduler.
type Config struct {
	// Tokens is the total worker-token budget shared by all running units
	// (< 1 is forced to 1).
	Tokens int
	// Weights are the per-class stride-scheduling weights; any entry <= 0
	// takes its default. The defaults {16, 4, 1} give interactive work a
	// 4x grant share over batch and 16x over background under saturation.
	Weights [NumClasses]int
	// MaxQueue bounds the concurrently admitted (queued + running) requests
	// per class; 0 means the default of 256, negative means unbounded.
	MaxQueue int
	// DefaultDeadline is applied to requests that carry none (0 = none).
	DefaultDeadline time.Duration
	// OnDeadlineMiss, when non-nil, is invoked once per deadline miss with
	// the class, the graph (empty when the miss precedes graph resolution
	// inside Admit), and the stage at which the miss was detected: "admit"
	// (rejected at admission), "start" (expired before a unit could start),
	// "queued" (expired while parked in the grant queue), or "wait" (the
	// unit's context deadline fired while it waited for tokens). The hook
	// runs with the scheduler lock held: it must return quickly and must
	// not call back into the scheduler — bump a counter or hand the event
	// to a logger, nothing more.
	OnDeadlineMiss func(class Class, graph, stage string)
}

// defaultWeights are the class weights used for Config entries <= 0.
var defaultWeights = [NumClasses]int{16, 4, 1}

// defaultMaxQueue is the per-class admission bound used when
// Config.MaxQueue is 0.
const defaultMaxQueue = 256

// strideScale is the numerator of the per-class stride (stride = scale /
// weight). Large enough that integer strides stay distinct across any sane
// weight spread.
const strideScale = 1 << 16

// waiter is one queued unit: a token request parked in its class's
// per-graph FIFO until the grant loop assigns it tokens or fails it.
type waiter struct {
	n        int
	deadline time.Time // zero = none
	// estUS is the unit's expected service time, resolved at enqueue from
	// the (graph, algo) model (class EWMA fallback); wait estimates sum
	// these instead of assuming every queued unit costs the class average.
	estUS int64
	ready chan struct{}
	// granted / failed are written under the scheduler mutex before ready
	// is closed; err is the failure cause (deadline expiry at wake-up).
	granted bool
	err     error
}

// graphQueue is a class's FIFO of waiters for one graph.
type graphQueue struct {
	name    string
	waiters []*waiter
}

// classState is one class's share of the scheduler: its stride clock, its
// round-robin ring of per-graph queues, and its counters.
type classState struct {
	weight int
	stride uint64
	pass   uint64

	queues map[string]*graphQueue
	ring   []*graphQueue // graphs with waiters, round-robin order
	next   int           // ring index of the next graph to serve
	queued int           // total waiters across the ring

	open int // admitted tickets not yet closed (the MaxQueue bound)

	admitted       int64
	rejected       int64
	deadlineMissed int64
	completed      int64

	// ewmaUS is an exponentially-weighted moving average of this class's
	// unit service times (grant to release), in microseconds — the fallback
	// for admission-time wait estimates when a (graph, algo) pair has no
	// model yet.
	ewmaUS int64
}

// maxServiceModels bounds the per-(graph, algo) service-time model map:
// past the cap, unseen pairs fall back to the class EWMA instead of
// growing the map without bound on adversarial graph names.
const maxServiceModels = 512

// modelKey is the service-time model index for a (graph, algo) pair.
func modelKey(graph, algo string) string { return graph + "|" + algo }

// Scheduler is the token scheduler. Construct with New; all methods are
// safe for concurrent use.
type Scheduler struct {
	mu       sync.Mutex
	tokens   int
	avail    int
	maxQueue int
	defaultD time.Duration
	classes  [NumClasses]*classState
	// models holds the per-(graph, algo) unit service-time EWMAs in
	// microseconds, fed by grant releases and read at enqueue; capacity is
	// bounded by maxServiceModels.
	models map[string]int64
	// inFlight counts tokens held per graph (fairness/observability).
	inFlight map[string]int
	// openTickets counts admitted, unclosed tickets across classes; drain
	// completion is its reaching zero.
	openTickets int
	draining    bool
	drained     chan struct{}

	// onMiss is Config.OnDeadlineMiss (nil = no hook); see missLocked.
	onMiss func(Class, string, string)

	// now is the clock, swappable by tests.
	now func() time.Time
}

// missLocked counts one deadline miss for class c and fires the configured
// hook. Callers hold s.mu.
func (s *Scheduler) missLocked(c Class, graph, stage string) {
	s.classes[c].deadlineMissed++
	if s.onMiss != nil {
		s.onMiss(c, graph, stage)
	}
}

// New builds a scheduler from cfg.
func New(cfg Config) *Scheduler {
	tokens := cfg.Tokens
	if tokens < 1 {
		tokens = 1
	}
	maxQueue := cfg.MaxQueue
	if maxQueue == 0 {
		maxQueue = defaultMaxQueue
	}
	s := &Scheduler{
		tokens:   tokens,
		avail:    tokens,
		maxQueue: maxQueue,
		defaultD: cfg.DefaultDeadline,
		onMiss:   cfg.OnDeadlineMiss,
		models:   make(map[string]int64),
		inFlight: make(map[string]int),
		drained:  make(chan struct{}),
		now:      time.Now,
	}
	for c := 0; c < NumClasses; c++ {
		w := cfg.Weights[c]
		if w <= 0 {
			w = defaultWeights[c]
		}
		s.classes[c] = &classState{
			weight: w,
			stride: strideScale / uint64(w),
			queues: make(map[string]*graphQueue),
		}
	}
	return s
}

// Tokens returns the scheduler's total token budget.
func (s *Scheduler) Tokens() int { return s.tokens }

// DefaultDeadline returns the deadline applied to requests that carry none
// (0 = none).
func (s *Scheduler) DefaultDeadline() time.Duration { return s.defaultD }

// Clamp bounds a per-unit token request to the scheduler's budget, so no
// single unit can wait for more tokens than exist.
func (s *Scheduler) Clamp(n int) int {
	if n < 1 {
		n = 1
	}
	if n > s.tokens {
		n = s.tokens
	}
	return n
}

// Ticket is one admitted request's handle on the scheduler: the fan-out
// acquires each unit's tokens through it, and Close returns the admission
// slot when the request finishes (on every path — success, error, client
// disconnect). Close is idempotent.
type Ticket struct {
	s        *Scheduler
	class    Class
	graph    string
	algo     string
	deadline time.Time // zero = none
	closed   bool
	mu       sync.Mutex
}

// Class returns the ticket's priority class.
func (t *Ticket) Class() Class { return t.class }

// Deadline returns the absolute deadline resolved at admission (the
// request's own, or the scheduler default applied to its admission time);
// zero means none.
func (t *Ticket) Deadline() time.Time { return t.deadline }

// Admit performs admission control for one request against graph running
// algo: it resolves the deadline (applying the scheduler default when the
// request carries none), rejects immediately when the scheduler is
// draining, when the class's admission bound is reached (QueueFullError
// with a Retry-After hint), or when the deadline has passed or is estimated
// unmeetable — and otherwise returns a Ticket the caller must Close exactly
// once when the request is finished. The algo keys, together with graph,
// the service-time model the ticket's units feed and consult.
func (s *Scheduler) Admit(class Class, graph, algo string, deadline time.Time) (*Ticket, error) {
	if class >= NumClasses {
		class = Interactive
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	cs := s.classes[class]
	if s.maxQueue > 0 && cs.open >= s.maxQueue {
		cs.rejected++
		return nil, &QueueFullError{Class: class, RetryAfter: s.retryAfterLocked(class)}
	}
	if deadline.IsZero() && s.defaultD > 0 {
		deadline = now.Add(s.defaultD)
	}
	if !deadline.IsZero() {
		if !deadline.After(now) {
			s.missLocked(class, graph, "admit")
			return nil, fmt.Errorf("%w: deadline already passed at admission", ErrDeadlineExceeded)
		}
		if wait := s.waitEstimateLocked(class); wait > 0 && now.Add(wait).After(deadline) {
			s.missLocked(class, graph, "admit")
			return nil, fmt.Errorf("%w: cannot be met (estimated queue wait %s exceeds the %s remaining)",
				ErrDeadlineExceeded, wait.Round(time.Millisecond), deadline.Sub(now).Round(time.Millisecond))
		}
	}
	cs.open++
	cs.admitted++
	s.openTickets++
	return &Ticket{s: s, class: class, graph: graph, algo: algo, deadline: deadline}, nil
}

// unitEstimateLocked returns the expected unit service time for a (graph,
// algo) pair in microseconds: its model when one exists, the class EWMA
// otherwise (0 = no history anywhere).
func (s *Scheduler) unitEstimateLocked(c Class, key string) int64 {
	if est, ok := s.models[key]; ok && est > 0 {
		return est
	}
	return s.classes[c].ewmaUS
}

// waitEstimateLocked estimates how long a new unit of class c would queue:
// every queued waiter contributes its own expected token-time — the
// (graph, algo) model estimate resolved when it enqueued, scaled by its
// token width — and the sum is divided by the total token budget. Waiters
// with no history anywhere are charged the admitting class's EWMA, which
// preserves the old class-level estimate until models warm up; with no
// history at all the estimate is zero and admission only rejects deadlines
// that have already passed.
func (s *Scheduler) waitEstimateLocked(c Class) time.Duration {
	fallback := s.classes[c].ewmaUS
	var totalUS int64
	for _, cs := range s.classes {
		for _, q := range cs.ring {
			for _, w := range q.waiters {
				est := w.estUS
				if est <= 0 {
					est = fallback
				}
				totalUS += est * int64(w.n)
			}
		}
	}
	if totalUS <= 0 {
		return 0
	}
	return time.Duration(totalUS) * time.Microsecond / time.Duration(s.tokens)
}

// retryAfterLocked suggests a client backoff for a full class queue: the
// time the backlog needs to drain at the observed service rate, clamped to
// [1s, 60s].
func (s *Scheduler) retryAfterLocked(c Class) time.Duration {
	est := s.waitEstimateLocked(c)
	if est < time.Second {
		return time.Second
	}
	if est > time.Minute {
		return time.Minute
	}
	return est.Round(time.Second)
}

// Acquire blocks until n tokens (pre-clamped via Clamp) are granted to this
// ticket's class/graph queue, its deadline expires, or ctx is done. On
// success the caller owns the returned Grant and must Release it.
func (t *Ticket) Acquire(ctx context.Context, n int) (*Grant, error) {
	s := t.s
	s.mu.Lock()
	cs := s.classes[t.class]
	// Fast path: tokens available and nothing queued in this class — serve
	// immediately without a queue round-trip. Cross-class ordering is the
	// stride clock's job, but an idle scheduler (avail == tokens) cannot be
	// serving anyone else, so bypassing is safe exactly when no same-class
	// waiter exists and every token is free.
	if cs.queued == 0 && s.avail == s.tokens && n <= s.avail {
		if !t.deadline.IsZero() && !t.deadline.After(s.now()) {
			s.missLocked(t.class, t.graph, "start")
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: before unit start", ErrDeadlineExceeded)
		}
		s.avail -= n
		s.inFlight[t.graph] += n
		s.mu.Unlock()
		return &Grant{t: t, n: n, started: s.now()}, nil
	}
	w := &waiter{
		n:        n,
		deadline: t.deadline,
		estUS:    s.unitEstimateLocked(t.class, modelKey(t.graph, t.algo)),
		ready:    make(chan struct{}),
	}
	q := cs.queues[t.graph]
	if q == nil {
		q = &graphQueue{name: t.graph}
		cs.queues[t.graph] = q
	}
	if len(q.waiters) == 0 {
		cs.enqueueGraph(q)
	}
	q.waiters = append(q.waiters, w)
	cs.queued++
	if cs.queued == 1 {
		// The class just became runnable: advance its pass to the active
		// minimum so it cannot hoard credit from its idle period and then
		// monopolize the grant loop.
		cs.pass = s.minActivePassLocked(cs.pass)
	}
	s.grantLocked()
	s.mu.Unlock()

	select {
	case <-w.ready:
		if w.err != nil {
			return nil, w.err
		}
		return &Grant{t: t, n: n, started: s.now()}, nil
	case <-ctx.Done():
		s.mu.Lock()
		if w.granted {
			// The grant raced the cancellation; hand the tokens straight
			// back.
			s.returnTokensLocked(t.graph, n)
			s.mu.Unlock()
			return nil, ctx.Err()
		}
		s.removeWaiterLocked(cs, t.graph, w)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.missLocked(t.class, t.graph, "wait")
		}
		// Removing a wide waiter can unblock the grant loop for narrower
		// ones behind it.
		s.grantLocked()
		s.mu.Unlock()
		return nil, ctx.Err()
	}
}

// enqueueGraph appends a (newly non-empty) graph queue to the class's
// round-robin ring.
func (cs *classState) enqueueGraph(q *graphQueue) {
	cs.ring = append(cs.ring, q)
}

// removeWaiterLocked unlinks a cancelled waiter from its graph queue and,
// if the queue empties, from the class ring.
func (s *Scheduler) removeWaiterLocked(cs *classState, graph string, w *waiter) {
	q := cs.queues[graph]
	if q == nil {
		return
	}
	for i, x := range q.waiters {
		if x == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			cs.queued--
			break
		}
	}
	if len(q.waiters) == 0 {
		s.dropGraphLocked(cs, q)
	}
}

// dropGraphLocked removes an emptied graph queue from the class ring,
// keeping the round-robin cursor on the same next graph.
func (s *Scheduler) dropGraphLocked(cs *classState, q *graphQueue) {
	for i, x := range cs.ring {
		if x == q {
			cs.ring = append(cs.ring[:i], cs.ring[i+1:]...)
			if cs.next > i {
				cs.next--
			}
			break
		}
	}
	if len(cs.ring) > 0 {
		cs.next %= len(cs.ring)
	} else {
		cs.next = 0
	}
	delete(cs.queues, q.name)
}

// minActivePassLocked returns the smallest pass among classes with queued
// work, defaulting to own for the first runnable class.
func (s *Scheduler) minActivePassLocked(own uint64) uint64 {
	min := own
	found := false
	for _, cs := range s.classes {
		if cs.queued > 0 && (!found || cs.pass < min) {
			min = cs.pass
			found = true
		}
	}
	if !found {
		return own
	}
	if own > min {
		return own
	}
	return min
}

// grantLocked runs the grant loop: repeatedly pick the queued class with
// the minimum stride pass (ties to the higher-priority class), serve the
// next graph in its round-robin ring, and hand its head waiter the tokens.
// Waiters whose deadline has passed are failed instead of granted. The loop
// stops when no class has work or the chosen class's head waiter does not
// fit in the available tokens (no bypass; see the package comment).
func (s *Scheduler) grantLocked() {
	now := time.Time{} // lazily read: most passes never need the clock
	for {
		var best *classState
		var bestClass Class
		for c, cs := range s.classes {
			if cs.queued == 0 {
				continue
			}
			if best == nil || cs.pass < best.pass {
				best, bestClass = cs, Class(c)
			}
		}
		if best == nil {
			return
		}
		q := best.ring[best.next%len(best.ring)]
		w := q.waiters[0]
		if !w.deadline.IsZero() {
			if now.IsZero() {
				now = s.now()
			}
			if !w.deadline.After(now) {
				// Expired while queued: fail it without charging the class's
				// stride clock, and keep granting.
				q.waiters = q.waiters[1:]
				best.queued--
				if len(q.waiters) == 0 {
					s.dropGraphLocked(best, q)
				} else {
					best.next = (best.next + 1) % len(best.ring)
				}
				s.missLocked(bestClass, q.name, "queued")
				w.err = fmt.Errorf("%w: expired while queued", ErrDeadlineExceeded)
				close(w.ready)
				continue
			}
		}
		if w.n > s.avail {
			return
		}
		q.waiters = q.waiters[1:]
		best.queued--
		if len(q.waiters) == 0 {
			s.dropGraphLocked(best, q)
		} else {
			best.next = (best.next + 1) % len(best.ring)
		}
		best.pass += best.stride
		s.avail -= w.n
		s.inFlight[q.name] += w.n
		w.granted = true
		close(w.ready)
	}
}

// Grant is one unit's checked-out tokens.
type Grant struct {
	t       *Ticket
	n       int
	started time.Time
	done    bool
}

// Release returns the grant's tokens and feeds the unit's service time into
// the class EWMA and the (graph, algo) model. Exactly one of Release,
// ReleaseUnits and Abandon must be called per grant, exactly once.
func (g *Grant) Release() { g.ReleaseUnits(1) }

// ReleaseUnits is Release for a grant that served units requests in one
// run — a bit-parallel batch. The measured duration is divided by units
// before feeding the service-time models, so a 64-lane batch teaches the
// scheduler the per-unit cost, not the traversal cost, and the class's
// completion counter advances by units. units < 1 is treated as 1.
func (g *Grant) ReleaseUnits(units int) { g.release(max(units, 1)) }

// Abandon returns the grant's tokens for a run that did not finish — its
// context was cancelled or its deadline fired mid-kernel. The time such a
// run held its tokens says nothing about what the work costs, so the class
// EWMA, the (graph, algo) model and the completion counter stay untouched:
// fed truncated durations, admission under overload would learn that work
// is faster than it is and accept deadlines it cannot meet.
func (g *Grant) Abandon() { g.release(0) }

// release returns the grant's tokens and, when the run finished units > 0
// units, teaches the service-time models its per-unit duration.
func (g *Grant) release(units int) {
	if g.done {
		panic("sched: double release of a token grant")
	}
	g.done = true
	s := g.t.s
	held := s.now().Sub(g.started).Microseconds()
	s.mu.Lock()
	if units > 0 {
		unitUS := held / int64(units)
		cs := s.classes[g.t.class]
		if cs.ewmaUS == 0 {
			cs.ewmaUS = unitUS
		} else {
			cs.ewmaUS += (unitUS - cs.ewmaUS) / 8
		}
		key := modelKey(g.t.graph, g.t.algo)
		if prev, ok := s.models[key]; ok {
			s.models[key] = prev + (unitUS-prev)/8
		} else if len(s.models) < maxServiceModels {
			s.models[key] = unitUS
		}
		cs.completed += int64(units)
	}
	s.returnTokensLocked(g.t.graph, g.n)
	s.mu.Unlock()
}

// returnTokensLocked hands n tokens granted against graph back to the pool
// and lets the grant loop pass them on.
func (s *Scheduler) returnTokensLocked(graph string, n int) {
	s.avail += n
	s.inFlight[graph] -= n
	if s.inFlight[graph] == 0 {
		delete(s.inFlight, graph)
	}
	s.grantLocked()
}

// Close returns the ticket's admission slot. Idempotent; must be called on
// every path once the request is finished.
func (t *Ticket) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	t.mu.Unlock()
	s := t.s
	s.mu.Lock()
	s.classes[t.class].open--
	s.openTickets--
	if s.draining && s.openTickets == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
}

// BeginDrain stops admission: every subsequent Admit fails with
// ErrDraining, while already-admitted tickets keep their full service.
// Idempotent.
func (s *Scheduler) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	if s.openTickets == 0 {
		select {
		case <-s.drained:
		default:
			close(s.drained)
		}
	}
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drained returns a channel closed once BeginDrain has been called and the
// last admitted ticket has closed.
func (s *Scheduler) Drained() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drained
}

// ClassStats is one class's counter snapshot.
type ClassStats struct {
	// Weight is the class's configured stride weight.
	Weight int
	// Admitted / Rejected / DeadlineMissed / Completed count tickets
	// admitted, tickets rejected at admission (queue full), deadline
	// failures (at admission, in queue, or at unit start), and finished
	// units (abandoned grants do not count).
	Admitted, Rejected, DeadlineMissed, Completed int64
	// QueueDepth is the number of currently queued unit waiters.
	QueueDepth int
	// Open is the number of admitted, unclosed tickets.
	Open int
}

// Stats is a scheduler snapshot.
type Stats struct {
	// Tokens / Avail are the total and currently free worker tokens.
	Tokens, Avail int
	// Draining reports whether admission is stopped.
	Draining bool
	// Classes holds the per-class counters, indexed by Class.
	Classes [NumClasses]ClassStats
	// GraphInFlight maps graph name to tokens currently granted against it.
	GraphInFlight map[string]int
	// ServiceModels is the number of (graph, algo) pairs with a learned
	// service-time model (bounded by an internal cap).
	ServiceModels int
}

// Stats snapshots the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{Tokens: s.tokens, Avail: s.avail, Draining: s.draining, ServiceModels: len(s.models)}
	for c, cs := range s.classes {
		out.Classes[c] = ClassStats{
			Weight:         cs.weight,
			Admitted:       cs.admitted,
			Rejected:       cs.rejected,
			DeadlineMissed: cs.deadlineMissed,
			Completed:      cs.completed,
			QueueDepth:     cs.queued,
			Open:           cs.open,
		}
	}
	out.GraphInFlight = make(map[string]int, len(s.inFlight))
	for g, n := range s.inFlight {
		out.GraphInFlight[g] = n
	}
	return out
}
