package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// closedLoop runs clients goroutines that each issue operations back to
// back until d has elapsed; issue receives the client index and a shared,
// strictly increasing operation index. It returns how many operations were
// issued, how many failed, and the wall time.
func closedLoop(clients int, d time.Duration, issue func(client int, i int64) error) (n, failed int64, wall time.Duration) {
	var next, bad atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if issue(c, next.Add(1)-1) != nil {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	return next.Load(), bad.Load(), time.Since(start)
}

// windows is how many consecutive windows a closed loop is split into; a
// throughput is the median over its windows, so a transient stall of the
// machine moves one window, not the result. Latency quantiles are taken
// over all of a phase's samples.
const windows = 5

// closedLoopRate runs the closed loop for d in consecutive windows and
// returns the median per-window throughput with the totals.
func closedLoopRate(clients int, d time.Duration, issue func(client int, i int64) error) (rate float64, n, failed int64) {
	var rates []float64
	var base int64
	for w := 0; w < windows; w++ {
		wn, wf, wall := closedLoop(clients, d/windows, func(c int, i int64) error { return issue(c, base+i) })
		base += wn
		n += wn
		failed += wf
		rates = append(rates, float64(wn)/wall.Seconds())
	}
	return median(rates), n, failed
}

// openLoopResult is what an open loop measured, indexed by operation in
// due order. Latency is timed from each operation's due time, so a stall
// also counts against the operations queued behind it; late is how far
// behind schedule each was sent.
type openLoopResult struct {
	lat, late []time.Duration
	n, failed int64
}

// openLoop offers rate operations per second for d: operation i is due at
// start + i/rate, and workers goroutines claim due operations in order,
// each waiting until its operation is due. When every worker is busy the
// due operations wait, which their latency records.
func openLoop(workers int, rate float64, d time.Duration, issue func(worker int, i int64) error) openLoopResult {
	var next, bad atomic.Int64
	total := int64(rate * d.Seconds())
	res := openLoopResult{n: total, lat: make([]time.Duration, total), late: make([]time.Duration, total)}
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				waitUntil(due)
				sent := time.Now()
				if issue(w, i) != nil {
					bad.Add(1)
				}
				res.lat[i] = time.Since(due)
				res.late[i] = sent.Sub(due)
			}
		}(w)
	}
	wg.Wait()
	res.failed = bad.Load()
	return res
}

// log prints the spread of the loop's latencies and lateness to standard
// error.
func (r openLoopResult) log(what string) {
	lat := append([]time.Duration(nil), r.lat...)
	late := append([]time.Duration(nil), r.late...)
	var over int
	for _, l := range lat {
		if l > 2*time.Millisecond {
			over++
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d requests, p50 %v, p90 %v, p95 %v, p99 %v, p99.9 %v, >2ms %.4f, late p50 %v p99 %v\n",
		what, len(lat), quantile(lat, 0.5), quantile(lat, 0.9), quantile(lat, 0.95), quantile(lat, 0.99), quantile(lat, 0.999),
		float64(over)/float64(max(len(lat), 1)), quantile(late, 0.5), quantile(late, 0.99))
}

// waitUntil returns at t. Timer sleeps wake up to a millisecond late, so
// the last stretch yields the processor instead: a yielding goroutine runs
// only when no other goroutine of the process (the server's included) is
// ready to.
func waitUntil(t time.Time) {
	const slack = 2 * time.Millisecond
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > slack:
			time.Sleep(d - slack)
		default:
			runtime.Gosched()
		}
	}
}

// quantile returns the q-quantile of xs (nearest rank; xs is sorted in
// place). Empty input gives 0.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// zipfIndex draws indices in [0, n) with P(i) proportional to 1/(i+1)^s.
type zipfIndex struct{ cum []float64 }

func newZipf(n int, s float64) zipfIndex {
	z := zipfIndex{cum: make([]float64, n)}
	var total float64
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z zipfIndex) draw(u float64) int {
	i := sort.SearchFloat64s(z.cum, u)
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
