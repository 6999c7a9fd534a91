package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// sizing holds every number that differs between the real run and -smoke.
type sizing struct {
	serveN      int     // vertices of the graph lgc-serve holds
	diffuseN    int     // vertices of the global-diffusion graph
	diffuseEps  float64 // PR-Nibble eps of the global-diffusion op
	minPairs    int     // procs=1 / procs=P pairs timed at least
	maxDelta    int     // lgc-serve -max-delta-edges on serve-ingest (0 = its default)
	tailBatches int     // batches sent after the last compaction, before SIGKILL
	warmup      time.Duration
	setupReps   int
	restarts    int // extra start-to-first-answer samples after the timed phase
	samples     int // answers compared against the library before timing
	hotSeeds    int // serve-mixed: size of the zipfian hot set
}

var (
	fullSize = sizing{
		serveN: 240_000, diffuseN: 60_000, diffuseEps: 2e-7, minPairs: 6, tailBatches: 25,
		warmup: 2 * time.Second, setupReps: 3, restarts: 8, samples: 32, hotSeeds: 4096,
	}
	smokeSize = sizing{
		serveN: 12_000, diffuseN: 12_000, diffuseEps: 1e-6, minPairs: 2, maxDelta: 4096, tailBatches: 4,
		warmup: 200 * time.Millisecond, setupReps: 1, restarts: 1, samples: 8, hotSeeds: 512,
	}
)

// Fixed parameters of the workloads (see README.md for why each value).
const (
	alpha         = 0.01
	localEps      = 1e-5
	maxMembers    = 100
	batchSeeds    = 64
	zipfS         = 1.2
	ingestRate    = 10 // batches per second
	ingestEdges   = 1024
	ingestDeletes = ingestEdges / 5
)

// socLJ is the recipe of gen.StandIn("soc-LJ"): at 240,000 vertices it is
// that stand-in at gen.Medium, at 12,000 at gen.Small. Spelled out here so
// that global-diffusion can run it at a size of its own.
func socLJ(n int) map[string]int {
	return map[string]int{"n": n, "avgdeg": 17, "degin": 6, "commmin": 8, "commmax": 2000, "gamma100": 250, "seed": 0xA1}
}

// env is what every workload gets: the parsed arguments, the sizes, and
// where to put files.
type env struct {
	workload  string
	seed      uint64
	seconds   time.Duration
	trace     bool
	size      sizing
	procs     int    // P = min(nproc, 4)
	root      string // the checkout
	work      string // scratch for this run, removed on exit
	serverBin string
	rec       runRecord
}

// procsP is the worker count the parallel side of every comparison uses.
func procsP() int {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	return p
}

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json: the checkout the driver (or run.sh) started us in.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// buildDir is where builds, scratch and output go; .gitignore names it.
func buildDir(root string) string { return filepath.Join(root, ".bench_build") }

// ensureServer builds cmd/lgc-serve of the checkout into the build directory
// and returns the binary and how long the build took (not part of setup_s).
func ensureServer(root string) (string, time.Duration, error) {
	bin := filepath.Join(buildDir(root), "bin", "lgc-serve")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/lgc-serve")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build ./cmd/lgc-serve: %v\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// runRecord says what ran where; every output carries it.
type runRecord struct {
	Commit      string   `json:"commit"`
	Seed        uint64   `json:"seed"`
	NProc       int      `json:"nproc"`
	GOMAXPROCS  int      `json:"gomaxprocs"`
	P           int      `json:"p"`
	GoVersion   string   `json:"go_version"`
	CPUModel    string   `json:"cpu_model"`
	LoadAvg     float64  `json:"loadavg_start"`
	Smoke       bool     `json:"smoke,omitempty"`
	ServerFlags []string `json:"server_flags,omitempty"`
	BuildS      float64  `json:"server_build_s,omitempty"`
}

func newRunRecord(root string, seed uint64, smoke bool) runRecord {
	return runRecord{
		Commit:     gitCommit(root),
		Seed:       seed,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		P:          procsP(),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		LoadAvg:    loadAvg(),
		Smoke:      smoke,
	}
}

// gitCommit is "unknown" in a checkout that is not a git repository, which
// is what the driver runs in.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// loadAvg is the one-minute load average, or 0 where /proc has none.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 on a malformed file is fine for a diagnostic
	return v
}

// rssPeakMB reads VmHWM of a live process from /proc.
func rssPeakMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of pid %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// procs tracks every child process so that no exit path leaves one behind.
var procs struct {
	sync.Mutex
	live map[*exec.Cmd]bool
}

func trackProc(cmd *exec.Cmd) {
	procs.Lock()
	defer procs.Unlock()
	if procs.live == nil {
		procs.live = make(map[*exec.Cmd]bool)
	}
	procs.live[cmd] = true
}

func untrackProc(cmd *exec.Cmd) {
	procs.Lock()
	defer procs.Unlock()
	delete(procs.live, cmd)
}

// killStragglers ends whatever is still tracked: SIGTERM first, so that a
// server drains and a re-executed benchmark stops its own children, SIGKILL
// for what is still there five seconds later. It returns once none is left.
func killStragglers() {
	left := func() []*exec.Cmd {
		procs.Lock()
		defer procs.Unlock()
		out := make([]*exec.Cmd, 0, len(procs.live))
		for cmd := range procs.live {
			out = append(out, cmd)
		}
		return out
	}
	for _, cmd := range left() {
		_ = cmd.Process.Signal(syscall.SIGTERM) // already gone is fine
	}
	start := time.Now()
	for len(left()) > 0 { // whoever started a process waits for it and untracks it
		switch since := time.Since(start); {
		case since > 7*time.Second:
			return // killed two seconds ago; its starter is not coming back for it
		case since > 5*time.Second:
			for _, cmd := range left() {
				_ = cmd.Process.Kill() // already gone is fine
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}
