package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"indoorsq/internal/bench"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/obs"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

// Fixed offered rates of the open loops, chosen once below each
// workload's closed-loop capacity on a 2-core runner (see BENCHMARK.json).
const (
	serveMixRate   = 5000.0 // requests/s
	ingestReadRate = 400.0  // reader requests/s alongside the writer
	paperLayerRate = 400.0  // traced HTTP replay of paper queries, requests/s
	// ingestLatencyRate is the reader's rate, requests/s over nproc
	// connections, in track_ingest's latency phase, which runs once the
	// writer has stopped. Alongside the closed-loop writer, which holds
	// both cores, the reader's tail moved 2-3x with host CPU contention.
	ingestLatencyRate = 2000.0
)

// tailQ is the quantile the tail metrics (latency_p90_us,
// update_batch_p90_ms) report. On a 2-vCPU VM, a thread that becomes
// ready while both vCPUs are taken (host steal, or the process's other
// threads) waits for the next 4 ms scheduler tick, which 1-6% of requests
// do; every quantile from p95 up lands on that tick in some runs and
// below it in others, so it measures the machine, not the program. The
// p90 stays below it; the p95 and p99 of every open loop and update
// series still go to standard error.
const tailQ = 0.9

// run accumulates one invocation's outcome.
type run struct {
	c         config
	s         *stack
	attempted int64
	failed    int64
	mismatch  []string
	metrics   map[string]metric
	units     map[string]string
	// layerFrom is the tracer time the HTTP layer phase began at; busy
	// accumulates exec.Pool batches for exec.busy_frac.
	layerFrom int64
	busy      busyAcc
}

func newRun(c config, s *stack) *run {
	r := &run{c: c, s: s, metrics: map[string]metric{}, units: map[string]string{}}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		r.units[d.name] = d.unit
	}
	return r
}

func (r *run) set(name string, v float64) {
	unit, ok := r.units[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: MISMATCH:", msg)
	r.mismatch = append(r.mismatch, msg)
}

func (r *run) count(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// result keeps only the metrics of the run's kind: end-to-end metrics on
// an untraced run, per-layer metrics on a traced one.
func (r *run) result() *result {
	defs := endToEnd
	if r.c.trace {
		r.set("failed_frac", float64(r.failed)/float64(max(r.attempted, 1)))
		defs = perLayer()
	} else {
		r.set("success_frac", 1-float64(r.failed)/float64(max(r.attempted, 1)))
	}
	out := &result{Correct: len(r.mismatch) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		if m, ok := r.metrics[d.name]; ok {
			out.Metrics[d.name] = m
		}
	}
	return out
}

// setups is how many times a run sets the stack up; setup_s is their
// median.
func setups(c config, n int) int {
	if c.tiny {
		return 1
	}
	return n
}

// afterSetup records the set-up metrics every workload shares.
func (r *run) afterSetup() {
	r.set("setup_s", r.s.times.total.Seconds())
	r.set("heap_mb", heapMB())
}

// finish runs the checks and probes every workload shares once its timed
// phases are over: the update-batch probe (unless the workload measured
// update round trips itself), the final membership of every monitor, and
// in traced runs the layer replays.
func (r *run) finish(pool []request, probe bool) {
	s := r.s
	if probe {
		n, size := 1000, 1024
		if r.c.tiny {
			n, size = 8, 16
		}
		runtime.GC()
		rtt, bad := s.updateProbe(n, size)
		r.count(int64(n), bad)
		r.set("update_batch_p90_ms", float64(quantile(rtt, tailQ))/float64(time.Millisecond))
		logRTT("update probe", rtt)
	}
	if s.tr != nil {
		s.tr.on.Store(false)
	}
	n, bad, err := s.checkMonitors()
	r.count(n, 0)
	if err != nil {
		r.count(0, 1)
		r.wrong("monitor results: %v", err)
	}
	for _, b := range bad {
		r.wrong("%s", b)
	}
	if r.c.trace {
		r.layers(pool)
	}
}

// logRTT prints the spread of update round trips (rtt is sorted) to
// standard error.
func logRTT(what string, rtt []time.Duration) {
	if len(rtt) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d batches, p50 %v, p90 %v, p95 %v, p99 %v, max %v\n", what, len(rtt),
		quantile(rtt, 0.5), quantile(rtt, 0.9), quantile(rtt, 0.95), quantile(rtt, 0.99), rtt[len(rtt)-1])
}

// cpuClock reads the process's GC and total CPU seconds.
func cpuClock() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func totalAlloc() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runtimeWindow measures allocation and GC CPU over fn, which returns how
// many operations it completed.
func (r *run) runtimeWindow(fn func() int64) int64 {
	gc0, cpu0 := cpuClock()
	a0 := totalAlloc()
	n := fn()
	gc1, cpu1 := cpuClock()
	if r.c.trace {
		r.set("runtime.alloc_bytes_per_op", float64(totalAlloc()-a0)/float64(max(n, 1)))
		r.set("runtime.gc_cpu_frac", (gc1-gc0)/max(cpu1-cpu0, 1e-9))
	}
	return n
}

// overhead records how much tracing slowed the closed loop.
func (r *run) overhead(untraced, traced float64) {
	r.set("trace.overhead_frac", 1-traced/untraced)
}

// ---------------------------------------------------------------- serve_mix

// serveMixDefs sizes serve_mix. Its moving state, which only the update
// probe uses, is driven in process as on paper_engines: over loopback HTTP
// the probe's 100 KB bodies made its p99 move up to 2.7x between runs when
// the host was busy, while ApplyBatch in process moved by 20%. The HTTP
// update path is track_ingest's to measure; the traced run drives the
// state over HTTP so that the update layer's metrics exist here too.
func serveMixDefs(c config) ([]venueDef, []mixSpec, *movingDef) {
	if c.tiny {
		return []venueDef{
				{id: "kiosk", params: spacegen.Params{Floors: 1, Rows: 2, Cols: 3, ExtraDoors: 2}, objects: 40},
				{id: "mall", params: spacegen.Params{Floors: 2, Rows: 2, Cols: 4, ExtraDoors: 2}, objects: 60},
			}, []mixSpec{
				{points: 8, requests: 12, radius: 10, k: 5, knn: 0.4, rng: 0.3, spd: true},
				{points: 8, requests: 12, radius: 12, k: 5, knn: 0.4, rng: 0.3, spd: true},
			}, &movingDef{venue: "mall", points: 4, ranges: 6, knns: 2, objects: 200, batch: 100, inProcess: !c.trace}
	}
	return []venueDef{
			{id: "kiosk", params: spacegen.Params{Floors: 1, Rows: 4, Cols: 6, ExtraDoors: 3}, objects: 300},
			{id: "mall", params: spacegen.Params{Floors: 2, Rows: 10, Cols: 12, ExtraDoors: 8}, objects: 1000},
			{id: "campus", params: spacegen.Params{Floors: 4, Rows: 15, Cols: 20, ExtraDoors: 10}, objects: 3000},
		}, []mixSpec{
			{points: 96, requests: 320, radius: 12, k: 10, knn: 0.4, rng: 0.3, spd: true},
			{points: 96, requests: 320, radius: 20, k: 10, knn: 0.4, rng: 0.3, spd: true},
			{points: 96, requests: 320, radius: 30, k: 10, knn: 0.4, rng: 0.3, spd: true},
		}, &movingDef{venue: "campus", points: 256, ranges: 252, knns: 4, objects: 5000, batch: 1000, inProcess: !c.trace}
}

// serveMixInputs draws the distinct request pool of every venue and the
// Zipf-skewed traffic sequence over it. The pool is a fixture of the venue,
// like its floor plan; the seed moves the POIs and the traffic order. With
// the pool drawn from the seed, which requests were hottest, and so how
// much work a run did, changed from run to run.
func serveMixInputs(c config, defs []venueDef, mixes []mixSpec, spaces []*indoor.Space) ([]request, []int32) {
	var pool []request
	for vi := range defs {
		pool = append(pool, makePool(spaces[vi], vi, defs[vi].id, mixes[vi], int64(3000+vi))...)
	}
	return pool, makeStream(pool, len(defs), 1<<16, c.seed*7+1)
}

// queryIssuer returns a load-generator operation asking stream[i] over
// HTTP, recording a client span when tracing is on.
func queryIssuer(s *stack, pool []request, stream []int32) func(int, int64) error {
	return func(_ int, i int64) error {
		ref := int(stream[i%int64(len(stream))])
		return s.get(pool[ref].path, ref)
	}
}

// warmUp drives the stream until every router has left its explore phase
// for the given query classes, and for at least d.
func warmUp(s *stack, issue func(int, int64) error, ops []string, d time.Duration) error {
	start := time.Now()
	for !routersExploit(s, ops) || time.Since(start) < d {
		if time.Since(start) > 60*time.Second {
			return fmt.Errorf("routers still exploring after %v", time.Since(start))
		}
		closedLoop(nproc(), 100*time.Millisecond, issue)
	}
	return nil
}

func runServeMix(c config) (*result, error) {
	defs, mixes, md := serveMixDefs(c)
	s, err := boot(c, defs, md, setups(c, 5))
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := newRun(c, s)
	r.afterSetup()

	pool, stream := serveMixInputs(c, defs, mixes, s.spaces())
	if err := solve(s, pool); err != nil {
		return nil, err
	}
	n, err := checkOverHTTP(s, pool)
	r.count(n, 0)
	if err != nil {
		r.wrong("%v", err)
		return r.result(), nil
	}
	issue := queryIssuer(s, pool, stream)
	if err := warmUp(s, issue, tenant.RoutedOps, c.dur(0.1)); err != nil {
		return nil, err
	}

	if c.trace {
		var untraced, traced float64
		r.runtimeWindow(func() int64 {
			n, bad, wall := closedLoop(nproc(), c.dur(0.25), issue)
			r.count(n, bad)
			untraced = float64(n) / wall.Seconds()
			return n
		})
		s.tr.on.Store(true)
		n, bad, wall := closedLoop(nproc(), c.dur(0.25), issue)
		r.count(n, bad)
		traced = float64(n) / wall.Seconds()
		r.overhead(untraced, traced)
		r.layerPhase(pool, stream, serveMixRate, c.dur(0.5))
	} else {
		rate, n, bad := closedLoopRate(nproc(), c.dur(0.5), issue)
		r.count(n, bad)
		r.set("ops_per_s", rate)
		ol := openLoop(nproc(), serveMixRate, c.dur(0.5), issue)
		r.count(ol.n, ol.failed)
		ol.log("open loop")
		r.set("latency_p50_us", us(quantile(ol.lat, 0.5)))
		r.set("latency_p90_us", us(quantile(ol.lat, tailQ)))
	}
	logDecisions(s)
	r.probeEngines(pool)
	r.finish(pool, true)
	return r.result(), nil
}

// logDecisions prints each venue's routing decisions to standard error, so
// a run's throughput can be read against the engines that served it.
func logDecisions(s *stack) {
	for _, v := range s.venues {
		fmt.Fprintf(os.Stderr, "perfbench: router %s:", v.ID)
		for _, d := range v.Router().Decisions() {
			fmt.Fprintf(os.Stderr, " %s=%s", d.Op, d.Engine)
		}
		fmt.Fprintln(os.Stderr)
	}
}

// probeEngines measures engine_geomean_ops_per_s on a workload whose
// timed phases go through the router: every engine runs the whole pool.
func (r *run) probeEngines(pool []request) {
	d, minRound := r.c.dur(0.4), 40*time.Millisecond
	if r.c.tiny {
		minRound = 0
	}
	runtime.GC()
	rates, busy, n, bad := engineProbe(r.s, pool, d, minRound)
	r.count(n, 0)
	if bad > 0 {
		r.wrong("engine probe: %d answers differ from the oracle", bad)
	}
	r.set("engine_geomean_ops_per_s", geomeanRates(rates))
	if r.c.trace {
		r.set("exec.busy_frac", busy)
	}
}

// layerPhase is the traced run's HTTP layer measurement: an open loop over
// the stream with every round trip, handler and engine stage recorded.
func (r *run) layerPhase(pool []request, stream []int32, rate float64, d time.Duration) {
	s := r.s
	s.tr.on.Store(true)
	r.layerFrom = s.tr.now()
	ol := openLoop(nproc(), rate, d, queryIssuer(s, pool, stream))
	r.count(ol.n, ol.failed)
	r.set("loadgen.late_p99_us", us(quantile(ol.late, 0.99)))
}

// ------------------------------------------------------------ paper_engines

// Table 5 defaults of the paper.
const (
	paperObjects = 1000
	paperRadius  = 600.0
	paperK       = 10
	paperS2T     = 1500.0
)

// paperDefs sizes paper_engines. Its moving state, which only the update
// probe uses, is driven in process, so no server code is on the path of
// any of its end-to-end metrics. The traced run drives it over HTTP, as it
// does its queries in the HTTP layer phase, so that the update layer's
// metrics exist on this workload too.
func paperDefs(c config) ([]venueDef, *movingDef) {
	if c.tiny {
		return []venueDef{{id: "hsm", params: spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 3}, objects: 60}},
			&movingDef{venue: "hsm", points: 4, ranges: 6, knns: 2, objects: 200, batch: 100, inProcess: !c.trace}
	}
	return []venueDef{{id: "hsm", dataset: "HSM", objects: paperObjects}},
		&movingDef{venue: "hsm", points: 256, ranges: 252, knns: 4, objects: 5000, batch: 1000, inProcess: !c.trace}
}

// pairOps is one fresh query point's three paper queries: range and kNN
// at p.P, and SPD from p.P to p.Q (an s2t-apart pair from
// workload.Generator).
func pairOps(p workload.Pair, radius float64, k int) [3]exec.Op {
	return [3]exec.Op{
		{Kind: exec.RangeQ, P: p.P, R: radius},
		{Kind: exec.KNNQ, P: p.P, K: k},
		{Kind: exec.SPDQ, P: p.P, Q: p.Q},
	}
}

// engineRun is one engine's share of the timed rounds.
type engineRun struct {
	results []exec.Result // indexed like the triples' ops
	rates   []float64     // per-round queries/s
}

func runPaperEngines(c config) (*result, error) {
	defs, md := paperDefs(c)
	s, err := boot(c, defs, md, setups(c, 3))
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := newRun(c, s)
	r.afterSetup()
	v := s.venues[0]
	radius, k, s2t := paperRadius, paperK, paperS2T
	maxTriples, batch, warmRounds := 8000, 32, 10
	if c.tiny {
		radius, k, s2t, maxTriples, batch, warmRounds = 12, 5, 20, 400, 4, 2
	}
	tg := time.Now()
	pairs := paperPairs(v.Space, c, s2t, maxTriples)
	fmt.Fprintf(os.Stderr, "perfbench: %d SPD pairs generated in %v\n", len(pairs), time.Since(tg))
	pool := &exec.Pool{Workers: nproc()}
	runs := map[string]*engineRun{}
	for _, e := range bench.EngineNames {
		runs[e] = &engineRun{}
	}
	next := 0
	var roundRates []float64 // all five engines' queries per round over the round's pool time
	var lat []time.Duration  // every query's own time, in round order
	// rounds runs fresh triples through every engine, rotating the engine
	// order per round, until d has elapsed or the triples run out.
	rounds := func(d time.Duration, limit int, traced bool) (n int64, wall time.Duration) {
		start := time.Now()
		for round := 0; time.Since(start) < d && round < limit && next+batch <= len(pairs); round++ {
			ops := make([]exec.Op, 0, 3*batch)
			for _, p := range pairs[next : next+batch] {
				o := pairOps(p, radius, k)
				ops = append(ops, o[:]...)
			}
			next += batch
			var roundWall time.Duration
			for j := range bench.EngineNames {
				e := bench.EngineNames[(round+j)%len(bench.EngineNames)]
				ctx := context.Background()
				var ot *obs.Trace
				var base int64
				if traced {
					ot = obs.NewTrace()
					base = s.tr.now()
					ctx = obs.WithTrace(ctx, ot)
				}
				res, b := pool.RunCtx(ctx, v.Engines[e], ops)
				if traced {
					id := s.tr.ids.Add(1)
					s.tr.add(span{Name: spanBatch, ID: id, Req: id, Start: base, End: s.tr.now(), Engine: e})
					s.tr.add(s.tr.stageSpans(ot, id, id, base)...)
				}
				er := runs[e]
				er.results = append(er.results, res...)
				er.rates = append(er.rates, float64(len(ops))/b.Wall.Seconds())
				for _, rr := range res {
					lat = append(lat, rr.Elapsed)
				}
				roundWall += b.Wall
				r.busy.add(b)
				n += int64(len(ops))
			}
			roundRates = append(roundRates, float64(len(ops)*len(bench.EngineNames))/roundWall.Seconds())
		}
		return n, time.Since(start)
	}
	rounds(time.Duration(math.MaxInt64), warmRounds, false) // warm-up: fills the distance cache
	warm := next
	for _, e := range bench.EngineNames {
		runs[e] = &engineRun{}
	}
	r.busy, roundRates, lat = busyAcc{}, nil, nil

	if c.trace {
		var untraced float64
		r.runtimeWindow(func() int64 {
			n, wall := rounds(c.dur(0.25), math.MaxInt, false)
			untraced = float64(n) / wall.Seconds()
			return n
		})
		s.tr.on.Store(true)
		n, wall := rounds(c.dur(0.25), math.MaxInt, true)
		r.overhead(untraced, float64(n)/wall.Seconds())
		r.set("exec.busy_frac", r.busy.frac())
	} else {
		rounds(c.dur(0.5), math.MaxInt, false)
		r.set("ops_per_s", median(roundRates))
		var rates []float64
		for _, e := range bench.EngineNames {
			rates = append(rates, median(runs[e].rates))
		}
		r.set("latency_p50_us", us(quantile(lat, 0.5)))
		r.set("latency_p90_us", us(quantile(lat, tailQ)))
		r.set("engine_geomean_ops_per_s", geomean(rates))
	}
	if next == len(pairs) {
		fmt.Fprintf(os.Stderr, "perfbench: paper_engines used all %d pre-generated pairs\n", len(pairs))
	}

	// Check every timed answer of every engine against the oracle.
	timed := pairs[warm:next]
	to := time.Now()
	wants, err := paperOracle(s, timed, radius, k)
	fmt.Fprintf(os.Stderr, "perfbench: oracle answered %d triples in %v\n", len(timed), time.Since(to))
	if err != nil {
		return nil, err
	}
	for _, e := range bench.EngineNames {
		var bad int64
		for i, res := range runs[e].results {
			want := wants[i/3][i%3]
			if !want.check(res) {
				bad++
				if bad <= 3 {
					r.wrong("%s %s: answer differs from the oracle", e, want.path)
				}
			}
		}
		r.count(int64(len(runs[e].results)), runs[e].errs())
	}

	// The checked requests double as the pool for the HTTP layer phase and
	// the layer replays.
	var checked []request
	for i := 0; i < len(wants) && len(checked) < 600; i++ {
		checked = append(checked, wants[i][:]...)
	}
	if c.trace && len(checked) > 0 {
		stream := make([]int32, len(checked))
		for i := range stream {
			stream[i] = int32(i)
		}
		r.layerPhase(checked, stream, paperLayerRate, c.dur(0.25))
	}
	r.finish(checked, true)
	return r.result(), nil
}

// paperPairs draws the run's fresh SPD pairs; each pair's source is also
// the point of that triple's range and kNN queries.
func paperPairs(sp *indoor.Space, c config, s2t float64, n int) []workload.Pair {
	return workload.New(sp, c.seed*13+3).SPDPairs(s2t, n)
}

func (er *engineRun) errs() int64 {
	var n int64
	for _, res := range er.results {
		if res.Err != nil {
			n++
		}
	}
	return n
}

// paperOracle answers every triple with one oracle pass per query point:
// the oracle's object set is the POIs plus the triples' SPD targets (ids
// offset past the POIs), so AllDists(P) yields the range and kNN answers
// and the SPD distance together.
func paperOracle(s *stack, ts []workload.Pair, radius float64, k int) ([][3]request, error) {
	const chunk = 128
	v := s.venues[0]
	const targetBase = 1 << 30
	out := make([][3]request, len(ts))
	chunks := (len(ts) + chunk - 1) / chunk
	err := parallel(chunks, func(ci int) error {
		lo, hi := ci*chunk, min((ci+1)*chunk, len(ts))
		objs := append([]query.Object(nil), v.Objects...)
		for i := lo; i < hi; i++ {
			q := ts[i].Q
			host, ok := v.Space.HostPartition(q)
			if !ok {
				return fmt.Errorf("spd target %v is not indoors", q)
			}
			objs = append(objs, query.Object{ID: int32(targetBase + i), Loc: q, Part: host})
		}
		o := oracle.New(v.Space)
		o.SetObjects(objs)
		for i := lo; i < hi; i++ {
			nn, err := o.AllDists(ts[i].P)
			if err != nil {
				return err
			}
			var pois []query.Neighbor
			spd := -1.0
			for _, n := range nn {
				if n.ID < targetBase {
					pois = append(pois, n)
				} else if n.ID == int32(targetBase+i) {
					spd = n.Dist
				}
			}
			ops := pairOps(ts[i], radius, k)
			for j := range ops {
				out[i][j] = requestFor(0, v.ID, ops[j])
			}
			out[i][0].want = rangeAnswer(pois, radius)
			for _, n := range pois[:min(k, len(pois))] {
				out[i][1].want.dists = append(out[i][1].want.dists, n.Dist)
			}
			if spd < 0 {
				return fmt.Errorf("spd target of triple %d unreachable", i)
			}
			out[i][2].want.dist = spd
		}
		return nil
	})
	return out, err
}

// busyAcc sums exec.Pool batches into the busy fraction.
type busyAcc struct{ query, wall float64 }

func (b *busyAcc) add(bt exec.Batch) {
	b.query += bt.QueryTime.Seconds()
	b.wall += bt.Wall.Seconds()
}

func (b busyAcc) frac() float64 { return b.query / (b.wall * float64(nproc())) }

// ------------------------------------------------------------- track_ingest

func ingestDefs(c config) ([]venueDef, mixSpec, *movingDef, int) {
	if c.tiny {
		return []venueDef{{id: "tower", params: spacegen.Params{Floors: 2, Rows: 3, Cols: 4, ExtraDoors: 3}, objects: 60}},
			mixSpec{points: 8, requests: 12, radius: 12, k: 5, knn: 0.5},
			&movingDef{venue: "tower", points: 4, ranges: 10, knns: 2, objects: 500, batch: 250}, 32
	}
	return []venueDef{{id: "tower", params: spacegen.Params{
			Floors: 3, Rows: 20, Cols: 25, Hall: spacegen.HallStraight, ExtraDoors: 40, Imbalance: 0.2,
		}, objects: 1000}},
		mixSpec{points: 160, requests: 320, radius: 20, k: 10, knn: 0.5},
		&movingDef{venue: "tower", points: 64, ranges: 1990, knns: 10, objects: 100_000, batch: 2000}, 256
}

// ingestInputs draws the reader's distinct query pool, its warm-up stream,
// and the reader's sequence: pool indices, with every third request a
// monitor-result read encoded as -1-monitor. The reader asks range and kNN
// queries only; the pool's tail holds SPD requests that are checked and
// replayed on every engine but never sent while timing.
func ingestInputs(c config, defs []venueDef, mix mixSpec, sp *indoor.Space, monitors int) ([]request, []int32, []int32) {
	pool := makePool(sp, 0, defs[0].id, mix, venueSeed(c, 0)*3)
	stream := makeStream(pool, 1, 1<<12, c.seed*7+1)
	spd := mixSpec{points: mix.points, requests: mix.requests / 5, spd: true}
	pool = append(pool, makePool(sp, 0, defs[0].id, spd, venueSeed(c, 0)*3+1)...)
	rng := rand.New(rand.NewSource(c.seed*11 + 2))
	readOps := make([]int32, len(stream))
	for i := range readOps {
		if i%3 == 2 {
			readOps[i] = -1 - int32(rng.Intn(monitors))
		} else {
			readOps[i] = stream[i]
		}
	}
	return pool, stream, readOps
}

func runTrackIngest(c config) (*result, error) {
	defs, mix, md, batchSize := ingestDefs(c)
	s, err := boot(c, defs, md, setups(c, 3))
	if err != nil {
		return nil, err
	}
	defer s.close()
	r := newRun(c, s)
	r.afterSetup()

	pool, stream, readOps := ingestInputs(c, defs, mix, s.venues[0].Space, len(s.mov.monitors))
	if err := solve(s, pool); err != nil {
		return nil, err
	}
	n, err := checkOverHTTP(s, pool)
	r.count(n, 0)
	if err != nil {
		r.wrong("%v", err)
		return r.result(), nil
	}
	if err := warmUp(s, queryIssuer(s, pool, stream), []string{obs.OpRange, obs.OpKNN}, c.dur(0.05)); err != nil {
		return nil, err
	}
	s.mov.prepare(1 << 18) // generate the motion stream before timing

	read := func(_ int, i int64) error {
		op := readOps[i%int64(len(readOps))]
		if op >= 0 {
			return s.get(pool[op].path, int(op))
		}
		return s.get("/v1/venues/"+md.venue+"/monitors/"+strconv.Itoa(int(s.mov.monitors[-1-op].qid))+"/result", -1)
	}

	// phase runs the closed-loop writer and the open-loop reader together.
	// rate is the writer's median per-window update throughput.
	phase := func(d time.Duration) (rate float64, rtt []time.Duration, ol openLoopResult) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ol = openLoop(1, ingestReadRate, d, read)
		}()
		var buf []byte
		var bad int64
		perWindow := make([]float64, windows)
		start := time.Now()
		for time.Since(start) < d {
			b := s.mov.nextBatch(batchSize)
			t := time.Now()
			err := s.tr.clientSpan(spanUpdate, -1, func(req, sp uint64) error {
				return s.sendUpdates(s.mov, b, &buf, req, sp)
			})
			if err != nil {
				bad++
				continue
			}
			rtt = append(rtt, time.Since(t))
			if w := int(time.Since(start) * windows / d); w < windows {
				perWindow[w] += float64(len(b)) / (d / windows).Seconds()
			}
			s.tr.noteBatch(b)
		}
		wg.Wait()
		r.count(int64(len(rtt))+bad, bad)
		r.count(ol.n, ol.failed)
		return median(perWindow), rtt, ol
	}

	if c.trace {
		var untraced float64
		r.runtimeWindow(func() int64 {
			var rtt []time.Duration
			untraced, rtt, _ = phase(c.dur(0.25))
			return int64(len(rtt) * batchSize)
		})
		s.tr.on.Store(true)
		traced, _, _ := phase(c.dur(0.25))
		r.overhead(untraced, traced)
		r.layerFrom = s.tr.now()
		ol := openLoop(nproc(), ingestLatencyRate, c.dur(0.5), read)
		r.count(ol.n, ol.failed)
		r.set("loadgen.late_p99_us", us(quantile(ol.late, 0.99)))
	} else {
		rate, rtt, _ := phase(c.dur(1))
		r.set("ops_per_s", rate)
		r.set("update_batch_p90_ms", float64(quantile(rtt, tailQ))/float64(time.Millisecond))
		logRTT("writer", rtt)
		ol := openLoop(nproc(), ingestLatencyRate, c.dur(0.5), read)
		r.count(ol.n, ol.failed)
		ol.log("reader")
		r.set("latency_p50_us", us(quantile(ol.lat, 0.5)))
		r.set("latency_p90_us", us(quantile(ol.lat, tailQ)))
	}
	r.probeEngines(pool[:mix.requests]) // the reader's queries only
	r.finish(pool, false)
	return r.result(), nil
}

func traceFile(c config) string {
	return filepath.Join(c.dir, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
}
