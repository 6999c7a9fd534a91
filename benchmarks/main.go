// Command benchmarks is the repository's measuring stick: four workloads,
// the end-to-end metrics of BENCHMARK.json, and a traced pass that breaks
// them down by package. See README.md.
//
//	bash benchmarks/run.sh                                   # everything, tables on stdout
//	bash benchmarks/run.sh --workload serve-local --seed 3 --seconds 15 --trace 0
//	bash benchmarks/run.sh -repeat 10 -out a.json            # ten seeds per workload
//	bash benchmarks/run.sh -compare a.json b.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json.
const defaultSeconds = 15

var runners = map[string]func(*env) (values, *traceFile, outcome, error){
	"global-diffusion": runDiffusion,
	"serve-local":      runServeLocal,
	"serve-mixed":      runServeMixed,
	"serve-ingest":     runServeIngest,
}

// errIncorrect marks a run that finished but failed its oracle.
var errIncorrect = errors.New("operations failed or answers were wrong")

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workload = flag.String("workload", "", "run one workload and print its result object as the last line (default: all four, as tables)")
		seed     = flag.Uint64("seed", 1, "drives query seeds, arrival times and ingested edges; the graph recipe is fixed")
		secs     = flag.Float64("seconds", defaultSeconds, "length of the timed phase")
		trace    = flag.Int("trace", 0, "1 = the traced pass: per-layer metrics and trace.json instead of end-to-end metrics")
		repeat   = flag.Int("repeat", 1, "without -workload: runs per workload, each with the next seed")
		outPath  = flag.String("out", "", "without -workload: also write every run to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -out files: benchmarks -compare a.json b.json")
		smoke    = flag.Bool("smoke", false, "small graph, short phases: checks the harness, measures nothing")
		child    = flag.String("child", "", "internal: the process under test of global-diffusion")
	)
	flag.Parse()
	// The load generator shares the cores with the program under test; it
	// holds the graph for the oracle, so collecting less often costs memory
	// it has and saves interference it cannot afford.
	debug.SetGCPercent(400)
	if *child != "" {
		if err := childMain(*child); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks child:", err)
			return 1
		}
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmarks -compare a.json b.json")
			return 2
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 1
		}
		return 0
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	b := &bench{root: root, seconds: time.Duration(*secs * float64(time.Second)), size: fullSize, smoke: *smoke}
	if *smoke {
		b.size = smokeSize
	}
	defer b.cleanup()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		b.cleanup()
		os.Exit(130)
	}()

	if *workload != "" {
		run, err := b.runOne(*workload, *seed, *trace != 0)
		if err != nil && !errors.Is(err, errIncorrect) {
			fmt.Fprintln(os.Stderr, "benchmarks:", err)
			return 1
		}
		rec, _ := json.Marshal(run.Record) // a struct of strings and numbers always marshals
		fmt.Printf("record %s\n%s\n", rec, run.Result.line())
		if err != nil {
			return 1
		}
		return 0
	}
	if err := b.runAll(*seed, *repeat, *outPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchmarks:", err)
		return 1
	}
	return 0
}

// bench is the state shared by the runs of one invocation.
type bench struct {
	root      string
	seconds   time.Duration
	size      sizing
	smoke     bool
	serverBin string
	buildS    float64
	works     []string // scratch directories to remove on exit
}

func (b *bench) cleanup() {
	killStragglers()
	for _, dir := range b.works {
		os.RemoveAll(dir)
	}
}

// runRecorded is one run as -out stores it.
type runRecorded struct {
	Workload string    `json:"workload"`
	Trace    bool      `json:"trace"`
	Record   runRecord `json:"record"`
	Result   result    `json:"result"`
	Errors   []string  `json:"errors,omitempty"`
}

// runOne runs one workload once. A run whose operations failed comes back
// with errIncorrect and its result; any other error has no result.
func (b *bench) runOne(workload string, seed uint64, trace bool) (runRecorded, error) {
	run := runRecorded{Workload: workload, Trace: trace}
	runner, ok := runners[workload]
	if !ok {
		return run, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames())
	}
	if workload != "global-diffusion" && b.serverBin == "" {
		bin, took, err := ensureServer(b.root)
		if err != nil {
			return run, err
		}
		b.serverBin, b.buildS = bin, took.Seconds()
		fmt.Fprintf(os.Stderr, "built lgc-serve in %.1f s (not part of setup_s)\n", b.buildS)
	}
	tmp := filepath.Join(buildDir(b.root), "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return run, err
	}
	work, err := os.MkdirTemp(tmp, workload+"-")
	if err != nil {
		return run, err
	}
	b.works = append(b.works, work)
	defer os.RemoveAll(work)

	e := &env{
		workload: workload, seed: seed, seconds: b.seconds, trace: trace, size: b.size,
		procs: procsP(), root: b.root, work: work, serverBin: b.serverBin,
		rec: newRunRecord(b.root, seed, b.smoke),
	}
	e.rec.BuildS = b.buildS
	vals, tf, out, err := runner(e)
	run.Record, run.Errors = e.rec, out.errors
	if err != nil {
		return run, fmt.Errorf("%s: %w", workload, err)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
		probes, err := runProbes(e)
		if err != nil {
			return run, fmt.Errorf("%s: probes: %w", workload, err)
		}
		for k, v := range probes {
			vals[k] = v
		}
	}
	metrics, err := fill(defs, vals)
	if err != nil {
		return run, err
	}
	if !trace {
		for name, m := range metrics {
			if !(m.Value > 0) {
				return run, fmt.Errorf("%s: end-to-end metric %s is %v; every one must be measured", workload, name, m.Value)
			}
		}
	}
	run.Result = result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	if trace {
		tf.Record, tf.Workload, tf.PerLayer = e.rec, workload, metrics
		tf.Attempted, tf.Failed = out.attempted, out.failed
		path := filepath.Join(buildDir(b.root), "out", "trace-"+workload+".json")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return run, err
		}
		if err := writeTrace(path, *tf); err != nil {
			return run, err
		}
		fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", workload, len(tf.Spans), path)
	}
	if out.failed > 0 {
		for _, msg := range out.errors {
			fmt.Fprintf(os.Stderr, "%s: %s\n", workload, msg)
		}
		return run, fmt.Errorf("%s: %d of %d: %w", workload, out.failed, out.attempted, errIncorrect)
	}
	return run, nil
}

// outFile is what -out writes and -compare reads.
type outFile struct {
	Runs []runRecorded `json:"runs"`
}

// runAll is the command without -workload: every workload, repeat times with
// consecutive seeds, then its traced pass; tables on standard output. Each
// run is a fresh process started exactly as the driver starts one, so that
// nothing one run leaves in this process (heap, page cache of its scratch)
// is measured by the next.
func (b *bench) runAll(seed uint64, repeat int, outPath string) error {
	var all outFile
	for _, w := range workloads {
		for i := 0; i < repeat; i++ {
			run, err := b.spawn(w.Name, seed+uint64(i), false)
			if err != nil {
				return err
			}
			all.Runs = append(all.Runs, run)
			if i == 0 {
				rec, _ := json.Marshal(run.Record) // always marshals
				fmt.Printf("\n== %s ==\nwhy: %s\nrecord: %s\n", w.Name, w.Why, rec)
			}
			fmt.Printf("seed %d: attempted %d, succeeded %d, failed %d\n", seed+uint64(i),
				run.Result.Attempted, run.Result.Attempted-run.Result.Failed, run.Result.Failed)
			if repeat == 1 {
				printMetrics(os.Stdout, "end-to-end", endToEnd, run.Result.Metrics)
			}
		}
		if repeat > 1 {
			printSpread(os.Stdout, w.Name, all.Runs)
		}
		run, err := b.spawn(w.Name, seed, true)
		if err != nil {
			return err
		}
		all.Runs = append(all.Runs, run)
		fmt.Printf("traced pass: attempted %d, failed %d\n", run.Result.Attempted, run.Result.Failed)
		printMetrics(os.Stdout, "per-layer", perLayer, run.Result.Metrics)
	}
	if outPath == "" {
		return nil
	}
	body, err := json.MarshalIndent(all, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, body, 0o644)
}

// spawn runs one workload in a process of its own and reads back the record
// and result lines it prints.
func (b *bench) spawn(workload string, seed uint64, trace bool) (runRecorded, error) {
	run := runRecorded{Workload: workload, Trace: trace}
	self, err := os.Executable()
	if err != nil {
		return run, err
	}
	args := []string{"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(b.seconds.Seconds(), 'g', -1, 64), "--trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if b.smoke {
		args = append(args, "-smoke")
	}
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Start(); err != nil {
		return run, err
	}
	trackProc(cmd)
	err = cmd.Wait()
	untrackProc(cmd)
	if err != nil {
		return run, fmt.Errorf("%s (seed %d): %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		return run, fmt.Errorf("%s: expected a record and a result line, got %q", workload, out)
	}
	rec, ok := strings.CutPrefix(lines[len(lines)-2], "record ")
	if !ok {
		return run, fmt.Errorf("%s: no record line before the result", workload)
	}
	if err := json.Unmarshal([]byte(rec), &run.Record); err != nil {
		return run, err
	}
	return run, json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result)
}
