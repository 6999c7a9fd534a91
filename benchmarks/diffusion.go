package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"parcluster"
	"parcluster/internal/core"
)

// global-diffusion: the library user. The process under test is a child of
// this program that loads the graph from disk onto the heap and runs the op
// — PR-Nibble with an eps so small the support is the whole graph, then the
// sweep cut — alternately at procs=1 (the side op: T1) and procs=P (the op:
// TP), each pair from its own seed vertex of the largest component.

// childSpec is the child's whole input, passed as one JSON argument.
type childSpec struct {
	Graph     string  `json:"graph"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Procs     int     `json:"procs"`
	Eps       float64 `json:"eps"`
	MinPairs  int     `json:"min_pairs"`
	Trace     bool    `json:"trace"`
	ReadyOnly bool    `json:"ready_only"` // exit once the graph is loaded: a restart sample
}

// childMsg is one line of the child's standard output.
type childMsg struct {
	Event     string    `json:"event"`           // "ready" or "done"
	T1        []float64 `json:"t1_ms,omitempty"` // one op at procs=1 per timed pair
	TP        []float64 `json:"tp_ms,omitempty"` // the same op at procs=P
	Attempted int64     `json:"attempted,omitempty"`
	Failed    int64     `json:"failed,omitempty"`
	Errors    []string  `json:"errors,omitempty"`
	RSSPeakMB float64   `json:"rss_peak_mb,omitempty"`
	Layer     values    `json:"layer,omitempty"`
	Spans     []span    `json:"spans,omitempty"`
}

// largestComponent returns the vertices of g's largest connected component.
func largestComponent(g parcluster.GraphData) []uint32 {
	n := g.NumVertices()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var best, bestSize int32 = -1, 0
	var queue, buf []uint32
	for s := 0; s < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(s)
		comp[s] = id
		queue = append(queue[:0], uint32(s))
		size := int32(0)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			size++
			buf = g.NeighborsInto(buf, v)
			for _, w := range buf {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		if size > bestSize {
			best, bestSize = id, size
		}
	}
	out := make([]uint32, 0, bestSize)
	for v, c := range comp {
		if c == best {
			out = append(out, uint32(v))
		}
	}
	return out
}

// roundTimer timestamps the kernel's round callback. The callback fires
// before a round's edge phase, so round i lasts from its stamp to the next
// one (the last, to the end of the diffusion).
type roundTimer struct {
	at    []time.Time
	edges []int64
	dense []bool
}

func (rt *roundTimer) Round(_, _ int, _, edges int64, dense bool) {
	rt.at = append(rt.at, time.Now())
	rt.edges = append(rt.edges, edges)
	rt.dense = append(rt.dense, dense)
}

// opOutcome is one op's time and what the oracle needs from it.
type opOutcome struct {
	total, diffuse, sweep time.Duration
	support               int
	conductance           float64
	stats                 parcluster.Stats
	err                   error
}

// runOp runs and then checks one op. With rec set it is the traced variant:
// the same kernel entered through core.PRNibbleRun so that the public round
// observer can be attached, with spans recorded around each call.
func runOp(g parcluster.GraphData, v uint32, eps float64, p int, rec *recorder, req string, rounds *roundTotals) opOutcome {
	var (
		vec *parcluster.Vector
		out opOutcome
		rt  roundTimer
	)
	start := time.Now()
	if rec == nil {
		vec, out.stats = parcluster.PRNibble(g, v, parcluster.PRNibbleOptions{Alpha: alpha, Epsilon: eps, Procs: p})
	} else {
		vec, out.stats = core.PRNibbleRun(g, []uint32{v}, alpha, eps, core.OptimizedRule, 0, core.RunConfig{Procs: p, Observer: &rt})
	}
	diffused := time.Now()
	sw := parcluster.SweepCut(g, vec, parcluster.SweepOptions{Procs: p})
	end := time.Now()
	out.total, out.diffuse, out.sweep = end.Sub(start), diffused.Sub(start), end.Sub(diffused)
	out.support, out.conductance = vec.Len(), sw.Conductance

	if rec != nil {
		op := rec.add(0, "op", req, start, out.total)
		diff := rec.add(op, "core.prnibble.diffuse", req, start, out.diffuse)
		rec.add(op, "core.sweep", req, diffused, out.sweep)
		for i, at := range rt.at {
			next := diffused
			if i+1 < len(rt.at) {
				next = rt.at[i+1]
			}
			name := "ligra.round.sparse"
			if rt.dense[i] {
				name = "ligra.round.dense"
			}
			rec.add(diff, name, req, at, next.Sub(at))
			rounds.add(rt.dense[i], next.Sub(at), rt.edges[i])
		}
	}
	if err := checkVector(vec); err != nil {
		out.err = err
	} else if err := checkSweep(g, sw); err != nil {
		out.err = err
	} else if out.support < g.NumVertices()/2 {
		out.err = fmt.Errorf("support %d of %d: not the global regime this workload is for", out.support, g.NumVertices())
	}
	return out
}

// roundTotals sums round time and edges by traversal kind.
type roundTotals struct {
	denseNS, sparseNS       float64
	denseEdges, sparseEdges int64
	denseRounds, rounds     int
}

func (t *roundTotals) add(dense bool, d time.Duration, edges int64) {
	t.rounds++
	if dense {
		t.denseRounds++
		t.denseNS += float64(d)
		t.denseEdges += edges
	} else {
		t.sparseNS += float64(d)
		t.sparseEdges += edges
	}
}

func emit(w *bufio.Writer, m childMsg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return err
	}
	return w.Flush()
}

// childMain is the process under test of global-diffusion.
func childMain(arg string) error {
	var spec childSpec
	if err := json.Unmarshal([]byte(arg), &spec); err != nil {
		return fmt.Errorf("child spec: %w", err)
	}
	out := bufio.NewWriter(os.Stdout)
	g, err := parcluster.LoadFile(spec.Procs, spec.Graph)
	if err != nil {
		return err
	}
	// Ready is when a freshly started analyst could ask the first question.
	if err := emit(out, childMsg{Event: "ready"}); err != nil || spec.ReadyOnly {
		return err
	}

	giant := largestComponent(g)
	r := newRand(spec.Seed, streamDiffuse, 0)
	var rec *recorder
	if spec.Trace {
		rec = newRecorder()
	}
	done := childMsg{Event: "done"}
	var roundsP roundTotals
	var diffuse1, diffuseP, sweep1, sweepP []float64
	var exact parcluster.Stats
	var denseRounds int
	pair := func(timed bool, i int) {
		v := giant[r.Intn(len(giant))]
		req := fmt.Sprintf("pair-%d", i)
		var rounds1 roundTotals
		o1 := runOp(g, v, spec.Eps, 1, rec, req+"/p1", &rounds1)
		oP := runOp(g, v, spec.Eps, spec.Procs, rec, req+"/pN", &roundsP)
		done.Attempted += 3 // two ops and their comparison
		for _, err := range []error{o1.err, oP.err, pairErr(o1, oP)} {
			if err != nil {
				done.Failed++
				done.Errors = append(done.Errors, fmt.Sprintf("vertex %d: %v", v, err))
			}
		}
		if !timed {
			return
		}
		done.T1 = append(done.T1, float64(o1.total)/1e6)
		done.TP = append(done.TP, float64(oP.total)/1e6)
		diffuse1 = append(diffuse1, o1.diffuse.Seconds())
		diffuseP = append(diffuseP, oP.diffuse.Seconds())
		sweep1 = append(sweep1, o1.sweep.Seconds())
		sweepP = append(sweepP, oP.sweep.Seconds())
		if i == 1 { // the first timed pair: the same vertex on every run of a seed
			exact, denseRounds = o1.stats, rounds1.denseRounds
		}
	}
	pair(false, 0) // warm-up, checked before anything is timed
	if done.Failed > 0 {
		return fmt.Errorf("warm-up failed the oracle: %v", done.Errors)
	}
	start := time.Now()
	for i := 1; i <= spec.MinPairs || time.Since(start).Seconds() < spec.Seconds; i++ {
		pair(true, i)
	}

	if spec.Trace {
		var attributed, total float64
		self := selfTimes(rec.spans)
		for name, us := range self {
			total += us
			if name != "op" {
				attributed += us
			}
		}
		done.Spans = rec.spans
		done.Layer = values{
			"core.prnibble.diffuse_s.p1":       median(diffuse1),
			"core.prnibble.diffuse_s.pN":       median(diffuseP),
			"core.sweep_s.p1":                  median(sweep1),
			"core.sweep_s.pN":                  median(sweepP),
			"core.speedup":                     median(done.T1) / median(done.TP),
			"core.round.dense_ns_per_edge.pN":  ratio(roundsP.denseNS, float64(roundsP.denseEdges)),
			"core.round.sparse_ns_per_edge.pN": ratio(roundsP.sparseNS, float64(roundsP.sparseEdges)),
			// Exact at procs=1: the first timed pair's procs=1 run.
			"core.prnibble.rounds":        float64(exact.Iterations),
			"core.prnibble.dense_rounds":  float64(denseRounds),
			"core.prnibble.edges_touched": float64(exact.EdgesTouched),
			"core.attributed_share":       attributed / total,
		}
	}
	if done.RSSPeakMB, err = rssPeakMB(os.Getpid()); err != nil {
		return err
	}
	return emit(out, done)
}

func pairErr(o1, oP opOutcome) error {
	if o1.err != nil || oP.err != nil {
		return nil // already counted
	}
	return checkParallel(o1.support, oP.support, o1.conductance, oP.conductance)
}

// diffusionChild is a started child and the reader of its messages.
type diffusionChild struct {
	cmd   *exec.Cmd
	lines *bufio.Scanner
}

func startChild(spec childSpec) (*diffusionChild, error) {
	arg, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", string(arg))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	trackProc(cmd)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 256<<20) // "done" carries the spans
	return &diffusionChild{cmd: cmd, lines: sc}, nil
}

// next reads the child's next message. A child that dies first, or says
// something else, is an error; it is then killed and reaped here.
func (c *diffusionChild) next(event string) (childMsg, error) {
	var m childMsg
	err := fmt.Errorf("child ended before %q", event)
	if c.lines.Scan() {
		if err = json.Unmarshal(c.lines.Bytes(), &m); err == nil && m.Event == event {
			return m, nil
		}
		err = fmt.Errorf("child said %q, expected %q (%v)", m.Event, event, err)
	}
	_ = c.cmd.Process.Kill() // already gone is fine
	if werr := c.wait(); werr != nil {
		err = fmt.Errorf("%v: %v", err, werr)
	}
	return m, err
}

func (c *diffusionChild) wait() error {
	err := c.cmd.Wait()
	untrackProc(c.cmd)
	return err
}

// runDiffusion is the parent side of global-diffusion.
func runDiffusion(e *env) (values, *traceFile, outcome, error) {
	var out outcome
	var setups, restarts []float64
	var child *diffusionChild
	spec := childSpec{
		Seed: e.seed, Seconds: e.seconds.Seconds(), Procs: e.procs,
		Eps: e.size.diffuseEps, MinPairs: e.size.minPairs, Trace: e.trace,
	}
	restart := func(readyOnly bool) (*diffusionChild, error) {
		s := spec
		s.ReadyOnly = readyOnly
		begin := time.Now()
		c, err := startChild(s)
		if err != nil {
			return nil, err
		}
		if _, err := c.next("ready"); err != nil {
			return nil, err
		}
		restarts = append(restarts, time.Since(begin).Seconds())
		if readyOnly {
			return nil, c.wait()
		}
		return c, nil
	}
	reps := e.size.setupReps
	if e.trace {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		begin := time.Now()
		gf, err := buildGraph(e, e.size.diffuseN, filepath.Join(e.work, fmt.Sprintf("graph-%d", rep)), ".bin")
		if err != nil {
			return nil, nil, out, err
		}
		spec.Graph = gf.path
		if child, err = restart(rep < reps-1); err != nil {
			return nil, nil, out, err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	done, err := child.next("done")
	if err != nil {
		return nil, nil, out, err
	}
	if err := child.wait(); err != nil {
		return nil, nil, out, fmt.Errorf("child: %w", err)
	}
	for i := 0; i < e.size.restarts && !e.trace; i++ {
		if _, err := restart(true); err != nil {
			return nil, nil, out, err
		}
	}
	out.attempted, out.failed, out.errors = done.Attempted, done.Failed, done.Errors
	if len(done.TP) == 0 {
		return nil, nil, out, fmt.Errorf("child timed no op")
	}
	if e.trace {
		return done.Layer, &traceFile{Spans: done.Spans}, out, nil
	}
	// Six reps have no p99; their upper quartile is the tail that one
	// disturbed rep cannot move.
	tp := summarize(done.TP, 75)
	t1 := summarize(done.T1, 75)
	sumTP := 0.0
	for _, ms := range done.TP {
		sumTP += ms / 1e3
	}
	fmt.Fprintf(os.Stderr, "global-diffusion: op (procs=%d) %v; side (procs=1) %v; restarts %.4f s\n", e.procs, tp, t1, sortedCopy(restarts))
	return values{
		"setup_s":     median(setups),
		"op_p50_ms":   tp.p50,
		"op_tail_ms":  tp.tail,
		"ops_per_s":   float64(len(done.TP)) / sumTP,
		"side_p50_ms": t1.p50,
		"restart_s":   median(restarts),
		"rss_peak_mb": done.RSSPeakMB,
	}, nil, out, nil
}
