package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"indoorsq/internal/bench"
	"indoorsq/internal/cindex"
	"indoorsq/internal/doorgraph"
	"indoorsq/internal/exec"
	"indoorsq/internal/idindex"
	"indoorsq/internal/idmodel"
	"indoorsq/internal/indoor"
	"indoorsq/internal/iptree"
	"indoorsq/internal/moving"
	"indoorsq/internal/obs"
	"indoorsq/internal/query"
	"indoorsq/internal/reach"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
)

// layers derives every per-layer metric of a traced run: from the spans
// the HTTP layer phase recorded, from in-process replays of the same
// requests one layer further down at a time, and from micro-timings of the
// kernels underneath. It ends by writing the spans out.
func (r *run) layers(pool []request) {
	s := r.s
	s.tr.on.Store(true)
	r.httpLayer(pool)
	r.replayVenueAndEngine(pool)
	r.serialServe(pool)
	r.engineReplays(pool)
	r.movingReplay()
	r.micro(pool)
	s.tr.on.Store(false)
	path := traceFile(r.c)
	if err := s.tr.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing trace:", err)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	}
}

// layerPair is one traced query request of the layer phase: the client
// round trip and the handler span under it.
type layerPair struct {
	client, handle span
}

func (r *run) layerPairs() []layerPair {
	handles := map[uint64]span{}
	for _, h := range r.s.tr.byName(spanHandle) {
		handles[h.Parent] = h
	}
	var out []layerPair
	for _, c := range r.s.tr.byName(spanClient) {
		if c.Start < r.layerFrom || c.Ref < 0 {
			continue
		}
		if h, ok := handles[c.ID]; ok && h.Engine != "" {
			out = append(out, layerPair{c, h})
		}
	}
	return out
}

// httpLayer: the round trip's own time (client span minus handler span),
// the handler's time, and how often the router served a query with an
// engine other than its class's final decision.
func (r *run) httpLayer(pool []request) {
	pairs := r.layerPairs()
	self := r.s.tr.selfTimes()
	final := map[[2]string]string{}
	for _, v := range r.s.venues {
		for _, d := range v.Router().Decisions() {
			final[[2]string{v.ID, d.Op}] = d.Engine
		}
	}
	var rt, hd []time.Duration
	var nonfinal int
	for _, p := range pairs {
		rt = append(rt, self[p.client.ID])
		hd = append(hd, p.handle.dur())
		v := r.s.venues[pool[p.client.Ref].venue]
		if final[[2]string{v.ID, p.handle.Op}] != p.handle.Engine {
			nonfinal++
		}
	}
	r.set("net.roundtrip_self_us_p50", us(quantile(rt, 0.5)))
	r.set("server.handle_us_p50", us(quantile(hd, 0.5)))
	r.set("server.handle_us_p99", us(quantile(hd, 0.99)))
	r.set("router.nonfinal_frac", float64(nonfinal)/float64(max(len(pairs), 1)))
}

// replayVenueAndEngine asks a sample of the layer phase's requests again
// in process: through tenant.Venue (which routes and observes), then
// directly on the engine the venue chose. Handler minus venue call is the
// HTTP layer's own time; venue call minus engine call the tenant's.
func (r *run) replayVenueAndEngine(pool []request) {
	pairs := r.layerPairs()
	if len(pairs) > 2000 {
		pairs = pairs[len(pairs)-2000:]
	}
	ctx := context.Background()
	var srvSelf, tenSelf []time.Duration
	for _, p := range pairs {
		req := &pool[p.client.Ref]
		v := r.s.venues[req.venue]
		t0 := r.s.tr.now()
		name, err := venueCall(ctx, v, req.op)
		t1 := r.s.tr.now()
		if err != nil {
			r.count(1, 1)
			continue
		}
		eng := query.AsCtx(v.Engines[name])
		t2 := r.s.tr.now()
		_ = engineCall(ctx, eng, req.op, nil)
		t3 := r.s.tr.now()
		tid, eid := r.s.tr.ids.Add(1), r.s.tr.ids.Add(1)
		r.s.tr.add(
			span{Name: spanTenant, ID: tid, Req: p.client.Req, Start: t0, End: t1, Ref: p.client.Ref, Engine: name},
			span{Name: spanEngine, ID: eid, Req: p.client.Req, Start: t2, End: t3, Ref: p.client.Ref, Engine: name},
		)
		tenSelf = append(tenSelf, time.Duration((t1-t0)-(t3-t2)))
		if name == p.handle.Engine {
			srvSelf = append(srvSelf, p.handle.dur()-time.Duration(t1-t0))
		}
	}
	r.set("server.self_us_p50", us(quantile(srvSelf, 0.5)))
	r.set("tenant.self_us_p50", us(quantile(tenSelf, 0.5)))
}

func venueCall(ctx context.Context, v *tenant.Venue, op exec.Op) (string, error) {
	var st query.Stats
	var name string
	var err error
	switch op.Kind {
	case exec.RangeQ:
		_, name, err = v.Range(ctx, op.P, op.R, &st, "")
	case exec.KNNQ:
		_, name, err = v.KNN(ctx, op.P, op.K, &st, "")
	default:
		_, name, err = v.SPD(ctx, op.P, op.Q, &st, "")
	}
	return name, err
}

func engineCall(ctx context.Context, e query.EngineCtx, op exec.Op, st *query.Stats) exec.Result {
	var res exec.Result
	switch op.Kind {
	case exec.RangeQ:
		res.IDs, res.Err = e.RangeCtx(ctx, op.P, op.R, st)
	case exec.KNNQ:
		res.Neighbors, res.Err = e.KNNCtx(ctx, op.P, op.K, st)
	default:
		res.Path, res.Err = e.SPDCtx(ctx, op.P, op.Q, st)
	}
	return res
}

// discard is a ResponseWriter that keeps nothing.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(b []byte) (int, error) { return io.Discard.Write(b) }
func (d *discard) WriteHeader(code int)        { d.code = code }

// serialServe replays the pool through the tier's handler in process, one
// request at a time, and reads the allocations per request from MemStats.
func (r *run) serialServe(pool []request) {
	reqs := make([]*http.Request, len(pool))
	for i := range pool {
		reqs[i] = httptest.NewRequest("GET", pool[i].path, nil)
	}
	w := &discard{h: http.Header{}}
	for _, rq := range reqs { // warm
		r.s.handler.ServeHTTP(w, rq)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const reps = 3
	for k := 0; k < reps; k++ {
		for _, rq := range reqs {
			w.code = 0
			clear(w.h)
			r.s.handler.ServeHTTP(w, rq)
			if w.code != 0 && w.code != http.StatusOK {
				r.count(0, 1)
			}
		}
	}
	runtime.ReadMemStats(&m1)
	n := float64(reps * len(reqs))
	r.count(int64(n), 0)
	r.set("server.allocs_per_req", float64(m1.Mallocs-m0.Mallocs)/n)
	r.set("server.alloc_bytes_per_req", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
}

// engineReplays runs every pooled query directly on each of the five
// engines of its venue with an obs.Trace bound, checking every answer, and
// derives the per-engine time, visited doors, working set and per-stage
// self time, plus the kernel counters the replays moved.
func (r *run) engineReplays(pool []request) {
	tr := r.s.tr
	hits0, skips0 := reach.Metrics.PruneHits.Load(), reach.Metrics.PruneSkips.Load()
	var cacheHits, cacheMisses int64
	for _, e := range bench.EngineNames {
		durs := map[string][]time.Duration{}
		doors := map[string]int{}
		count := map[string]int{}
		var work []time.Duration // peak working set in bytes, typed for quantile
		stageSelf := map[string]time.Duration{}
		var n int
		for i := range pool {
			req := &pool[i]
			v := r.s.venues[req.venue]
			ot := obs.NewTrace()
			ctx := obs.WithTrace(context.Background(), ot)
			var st query.Stats
			start := tr.now()
			res := engineCall(ctx, query.AsCtx(v.Engines[e]), req.op, &st)
			end := tr.now()
			r.count(1, 0)
			if !req.check(res) {
				r.wrong("engine replay %s %s: answer differs from the oracle", e, req.path)
			}
			op := opNames[req.op.Kind]
			id := tr.ids.Add(1)
			stages := tr.stageSpans(ot, id, id, start)
			tr.add(span{Name: spanEngine, ID: id, Req: id, Start: start, End: end, Ref: i, Engine: e, Op: op, NVD: st.VisitedDoors})
			tr.add(stages...)
			for _, sp := range stages {
				stageSelf[sp.Name[len(spanEngineStep):]] += sp.dur() - covered(sp, inside(sp, stages))
			}
			durs[op] = append(durs[op], time.Duration(end-start))
			doors[op] += st.VisitedDoors
			count[op]++
			work = append(work, time.Duration(st.PeakWorkBytes))
			cacheHits += st.CacheHits
			cacheMisses += st.CacheMisses
			n++
		}
		for _, op := range opNames {
			r.set("engine."+e+"."+op+".us_p50", us(quantile(durs[op], 0.5)))
			r.set("engine."+e+"."+op+".nvd", float64(doors[op])/float64(max(count[op], 1)))
		}
		r.set("engine."+e+".work_kb_p50", float64(quantile(work, 0.5))/1024)
		for _, stg := range engineStages[e] {
			r.set("engine."+e+"."+stg+".self_us", us(stageSelf[stg])/float64(max(n, 1)))
		}
		var size int64
		for _, v := range r.s.venues {
			size += v.Engines[e].SizeBytes()
		}
		r.set("engine."+e+".size_mb", float64(size)/(1<<20))
	}
	r.set("indoor.distcache_hit_frac", float64(cacheHits)/float64(max(cacheHits+cacheMisses, 1)))
	hits, skips := reach.Metrics.PruneHits.Load()-hits0, reach.Metrics.PruneSkips.Load()-skips0
	r.set("reach.prune_hit_frac", float64(hits)/float64(max(hits+skips, 1)))
}

// inside returns the spans of list strictly nested in p.
func inside(p span, list []span) []span {
	var out []span
	for _, s := range list {
		if s.ID != p.ID && s.Start >= p.Start && s.End <= p.End {
			out = append(out, s)
		}
	}
	return out
}

// movingReplay rebuilds the update layer in process on a second stream
// over the same venue: the same monitors, the same seeded objects, then
// the update batches the traced phase sent over HTTP, applied with
// ApplyBatch. The handler's time minus the replayed ApplyBatch time is the
// HTTP layer's own cost per update.
func (r *run) movingReplay() {
	s := r.s
	m := s.mov
	tr := s.tr
	st := moving.NewStream(m.sp, moving.StreamOptions{})
	defer st.Close()
	t0 := time.Now()
	for _, mon := range m.monitors {
		if _, err := registerMonitor(st, mon, m.points[mon.point]); err != nil {
			r.count(1, 1)
		}
	}
	r.set("moving.register_ms_per_monitor", float64(time.Since(t0))/float64(time.Millisecond)/float64(len(m.monitors)))
	if _, err := st.ApplyBatch(toUpdates(m.initial())); err != nil {
		r.count(1, 1)
	}

	upd0, ev0 := moving.Metrics.Updates.Load(), moving.Metrics.Events.Load()
	tc0, ts0 := moving.Metrics.Touched.Count(), moving.Metrics.Touched.Sum()
	var apply time.Duration
	var updates int
	for _, b := range tr.batches {
		ups := toUpdates(b)
		start := tr.now()
		_, err := st.ApplyBatch(ups)
		end := tr.now()
		if err != nil {
			r.count(1, 1)
			continue
		}
		id := tr.ids.Add(1)
		tr.add(span{Name: spanApply, ID: id, Req: id, Start: start, End: end})
		apply += time.Duration(end - start)
		updates += len(ups)
	}
	var handled time.Duration
	for _, h := range tr.byName(spanHandleUpd) {
		handled += h.dur()
	}
	r.set("moving.apply_us_per_update", us(apply)/float64(max(updates, 1)))
	r.set("server.update_self_us_per_update", us(handled-apply)/float64(max(updates, 1)))
	du := moving.Metrics.Updates.Load() - upd0
	r.set("moving.events_per_update", float64(moving.Metrics.Events.Load()-ev0)/float64(max(du, 1)))
	r.set("moving.touched_per_update", float64(moving.Metrics.Touched.Sum()-ts0)/float64(max(moving.Metrics.Touched.Count()-tc0, 1)))

	var res []time.Duration
	for _, mon := range m.monitors {
		t := time.Now()
		_ = st.Result(mon.qid)
		res = append(res, time.Since(t))
	}
	r.set("moving.result_us_p50", us(quantile(res, 0.5)))
}

func toUpdates(ms []spacegen.Motion) []moving.Update {
	out := make([]moving.Update, len(ms))
	for i, u := range ms {
		out[i] = moving.Update{ID: u.ID, Loc: u.Loc, Part: u.Part, T: u.T}
	}
	return out
}

// micro times the kernels under the engines and the serving tier on the
// workload's largest venue, plus the set-up stages.
func (r *run) micro(pool []request) {
	s := r.s
	big := 0
	for i, v := range s.venues {
		if v.Space.NumDoors() > s.venues[big].Space.NumDoors() {
			big = i
		}
	}
	sp := s.venues[big].Space

	// Host-partition lookup over the pool's query points.
	var pts []indoor.Point
	for _, q := range pool {
		if q.venue == big {
			pts = append(pts, q.op.P)
		}
	}
	r.set("indoor.host_lookup_ns", perCall(func() int {
		for _, p := range pts {
			sp.HostPartition(p)
		}
		return len(pts)
	}))

	// Warm door-to-door distance-cache lookups.
	type pair struct {
		v      indoor.PartitionID
		di, dj indoor.DoorID
	}
	var pairs []pair
	for _, part := range sp.Partitions() {
		for a := 0; a < len(part.Doors) && len(pairs) < 1<<14; a++ {
			for b := a + 1; b < len(part.Doors); b++ {
				pairs = append(pairs, pair{part.ID, part.Doors[a], part.Doors[b]})
			}
		}
	}
	dc := sp.DistCache()
	for _, p := range pairs {
		dc.DoorDist(p.v, p.di, p.dj)
	}
	r.set("indoor.door_dist_ns", perCall(func() int {
		for _, p := range pairs {
			dc.DoorDist(p.v, p.di, p.dj)
		}
		return len(pairs)
	}))

	// A full single-source sweep of the door graph, then the sweeps each
	// engine's construction runs: doors settled per sweep.
	settled0, sweeps0 := doorgraph.Metrics.Settled.Load(), doorgraph.Metrics.Sweeps.Load()
	g := s.bundles[big].Graph
	var sweeps []float64
	for i := 0; i < 9; i++ {
		t := time.Now()
		g.Dijkstra(int32(i*997%sp.NumDoors()), false)
		sweeps = append(sweeps, float64(time.Since(t))/float64(time.Millisecond))
	}
	r.set("doorgraph.sweep_ms", median(sweeps))

	// Set-up stages: bundle build and write from the kept set-up, a fresh
	// load of every artifact, and each engine's own construction.
	r.set("bundle.build_s", s.times.build.Seconds())
	r.set("bundle.write_s", s.times.write.Seconds())
	r.set("bundle.artifact_mb", float64(s.times.artifactBytes)/(1<<20))
	t := time.Now()
	for _, p := range s.paths {
		if _, err := bundle.LoadFile(p); err != nil {
			r.count(1, 1)
		}
	}
	r.set("bundle.load_s", time.Since(t).Seconds())
	for _, e := range bench.EngineNames {
		fresh, gamma, err := s.defs[big].space(big)
		if err != nil {
			r.count(1, 1)
			continue
		}
		t := time.Now()
		buildEngine(e, fresh, gamma)
		r.set("engine."+e+".build_s", time.Since(t).Seconds())
	}
	r.set("doorgraph.settled_per_query", float64(doorgraph.Metrics.Settled.Load()-settled0)/
		float64(max(doorgraph.Metrics.Sweeps.Load()-sweeps0, 1)))

	// Router decisions last: Choose advances the routers' counters.
	ops := tenant.RoutedOps
	r.set("router.choose_ns", perCall(func() int {
		n := 0
		for _, v := range s.venues {
			rt := v.Router()
			for i := 0; i < 1000; i++ {
				rt.Choose(ops[i%len(ops)])
			}
			n += 1000
		}
		return n
	}))
}

// buildEngine constructs one engine from scratch the way bundle.Build does.
func buildEngine(name string, sp *indoor.Space, gamma int) query.Engine {
	switch name {
	case "IDModel":
		return idmodel.New(sp)
	case "IDIndex":
		return idindex.NewWorkers(sp, nproc())
	case "CIndex":
		return cindex.New(sp)
	case "IPTree":
		return iptree.New(sp, iptree.Options{Gamma: gamma, Workers: nproc()})
	default:
		return iptree.New(sp, iptree.Options{Gamma: gamma, VIP: true, Workers: nproc()})
	}
}

// perCall repeats fn for at least 50ms and returns nanoseconds per call;
// fn returns how many calls it made.
func perCall(fn func() int) float64 {
	fn()
	var n int
	start := time.Now()
	for time.Since(start) < 50*time.Millisecond {
		n += fn()
	}
	return float64(time.Since(start)) / float64(max(n, 1))
}
