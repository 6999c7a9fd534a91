package main

import (
	"math/rand"
	"sync"
	"time"
)

// Each stream of generated inputs has its own generator, derived from the
// run's -seed and the stream's purpose, so that adding a stream or a client
// never shifts another's sequence.
const (
	streamQuery = iota + 1
	streamHot
	streamBatch
	streamIngest
	streamDiffuse
	streamSample
	streamProbe
)

func newRand(seed uint64, stream, client int) *rand.Rand {
	// splitmix64 of the three parts: distinct (seed, stream, client) give
	// unrelated sources even for adjacent seeds.
	x := seed*0x9E3779B97F4A7C15 + uint64(stream)*0xBF58476D1CE4E5B9 + uint64(client)*0x94D049BB133111EB
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rand.New(rand.NewSource(int64(x)))
}

// uniformSeeds draws query seed vertices uniformly from [0, n).
type uniformSeeds struct {
	r *rand.Rand
	n int
}

func (u uniformSeeds) next() uint32 { return uint32(u.r.Intn(u.n)) }

// zipfSeeds draws from a fixed hot set with zipfian popularity: rank k of
// the set is asked for with probability proportional to 1/(1+k)^s.
type zipfSeeds struct {
	z   *rand.Zipf
	hot []uint32
}

func newZipfSeeds(seed uint64, n, hot int) zipfSeeds {
	hr := newRand(seed, streamHot, 0)
	set := make([]uint32, hot)
	for i := range set {
		set[i] = uint32(hr.Intn(n))
	}
	return zipfSeeds{z: rand.NewZipf(newRand(seed, streamQuery, 0), zipfS, 1, uint64(hot-1)), hot: set}
}

func (z zipfSeeds) next() uint32 { return z.hot[z.z.Uint64()] }

// opLog collects what one client goroutine did; merge joins the clients'.
type opLog struct {
	latencies []time.Duration
	attempted int64
	failed    int64
	firstErr  error
}

func (l *opLog) record(d time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
		return
	}
	l.latencies = append(l.latencies, d)
}

func (l *opLog) merge(o opLog) {
	l.latencies = append(l.latencies, o.latencies...)
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// closedLoop runs clients callers, each sending its next operation only once
// the previous one answered, until the deadline. op gets the client index
// and returns the operation's latency.
func closedLoop(clients int, until time.Time, op func(client int) (time.Duration, error)) opLog {
	logs := make([]opLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(until) {
				d, err := op(c)
				logs[c].record(d, err)
			}
		}(c)
	}
	wg.Wait()
	var all opLog
	for _, l := range logs {
		all.merge(l)
	}
	return all
}

// openLoop is an independent event source: operation i is due at
// start + i*interval whether or not earlier ones have answered. One sender
// issues them in order, so a stall delays the ones behind it; each latency
// is therefore taken from the instant the operation was due, and late is how
// far behind its schedule the sender was when it issued each one.
type openLoopLog struct {
	opLog
	late []time.Duration
}

func openLoop(start time.Time, interval time.Duration, until time.Time, op func(i int) error) openLoopLog {
	var log openLoopLog
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) {
			return log
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		sent := time.Now()
		err := op(i)
		log.late = append(log.late, sent.Sub(due))
		log.record(time.Since(due), err)
	}
}
