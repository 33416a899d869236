package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indoorsq/internal/dataset"
	"indoorsq/internal/indoor"
	"indoorsq/internal/moving"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/server"
	"indoorsq/internal/snapshot/bundle"
	"indoorsq/internal/spacegen"
	"indoorsq/internal/tenant"
	"indoorsq/internal/workload"
)

// venueDef is one venue of a workload: a benchmark dataset or a generated
// spacegen shape, plus the static POIs the tier seeds at boot.
type venueDef struct {
	id      string
	dataset string
	params  spacegen.Params
	objects int
}

// movingDef sizes the continuous-query state set up on one venue:
// standing monitors at a few distinct points and a moving-object
// population seeded through the updates route, or, with inProcess, on a
// moving.Stream of the benchmark's own, so no server code is on its path.
type movingDef struct {
	venue     string
	points    int
	ranges    int
	knns      int
	objects   int
	batch     int // updates per POST
	inProcess bool
}

// monitorDef is one standing monitor.
type monitorDef struct {
	qid   int32
	point int // index into movingState.points
	knn   bool
	r     float64
	k     int
}

// movingState is the benchmark's record of the continuous-query state it
// drove: the monitors, and the last position it sent for every object,
// which the final membership check compares against.
type movingState struct {
	def      movingDef
	sp       *indoor.Space
	points   []indoor.Point
	monitors []monitorDef
	pos      map[int32]spacegen.Motion
	st       *moving.Stream // non-nil when the state is driven in process
	// motion is the pending motion stream; chunk counts generated chunks.
	motion []spacegen.Motion
	chunk  int64
	seed   int64
}

// setupTimes is one set-up's breakdown.
type setupTimes struct {
	total, build, write, load, moving time.Duration
	artifactBytes                     int64
}

// stack is one booted serving stack: every venue built into a bundle,
// written as a snapshot, loaded by the tier, served over loopback HTTP, and
// the continuous-query state registered through the HTTP routes.
type stack struct {
	cfg     config
	defs    []venueDef
	bundles []*bundle.Bundle
	paths   []string
	tier    *tenant.Tier
	venues  []*tenant.Venue
	handler http.Handler // the tier's own handler, unwrapped
	tr      *tracer      // non-nil only in traced runs
	srv     *http.Server
	served  chan struct{}
	base    string
	client  *http.Client
	mov     *movingState
	times   setupTimes
}

// venueSeed derives venue i's seed for everything the run's seed varies:
// its POIs, query pools and moving objects.
func venueSeed(c config, i int) int64 { return c.seed*1000 + int64(i) + 1 }

// space builds venue i's space. The building is fixed, like the paper's
// HSM dataset: a seed changes the objects and the traffic in it, not the
// floor plan, so runs with different seeds measure the same venues.
func (d venueDef) space(i int) (*indoor.Space, int, error) {
	if d.dataset != "" {
		info, err := dataset.Build(d.dataset)
		if err != nil {
			return nil, 0, err
		}
		return info.Space, info.Gamma, nil
	}
	sp, err := spacegen.Generate(int64(1000+i), d.params.Normalize())
	return sp, 4, err
}

// boot sets the stack up n times, tearing each down before the next, and
// returns the last one; its times.total is the median set-up time.
func boot(c config, defs []venueDef, md *movingDef, n int) (*stack, error) {
	var totals []float64
	var s *stack
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
			s = nil
			runtime.GC()
		}
		var err error
		if s, err = setup(c, defs, md); err != nil {
			return nil, err
		}
		totals = append(totals, s.times.total.Seconds())
	}
	s.times.total = time.Duration(median(totals) * float64(time.Second))
	t := s.times
	fmt.Fprintf(os.Stderr, "perfbench: set-up median %v over %d; last: build %v, write %v, load and boot %v, monitors and objects %v\n",
		t.total, n, t.build, t.write, t.load, t.moving)
	return s, nil
}

// setup boots one stack and times each stage.
func setup(c config, defs []venueDef, md *movingDef) (*stack, error) {
	s := &stack{cfg: c, defs: defs}
	t0 := time.Now()
	specs := make([]tenant.VenueSpec, len(defs))
	for i, d := range defs {
		sp, gamma, err := d.space(i)
		if err != nil {
			return nil, fmt.Errorf("venue %s: %w", d.id, err)
		}
		tb := time.Now()
		b, err := bundle.Build(d.id, sp, bundle.Options{Gamma: gamma, Workers: nproc()})
		if err != nil {
			return nil, fmt.Errorf("venue %s: %w", d.id, err)
		}
		tw := time.Now()
		path := filepath.Join(c.dir, d.id+".isq")
		if err := b.WriteFile(path, false); err != nil {
			return nil, fmt.Errorf("venue %s: %w", d.id, err)
		}
		s.times.build += tw.Sub(tb)
		s.times.write += time.Since(tw)
		if fi, err := os.Stat(path); err == nil {
			s.times.artifactBytes += fi.Size()
		}
		s.bundles = append(s.bundles, b)
		s.paths = append(s.paths, path)
		specs[i] = tenant.VenueSpec{ID: d.id, Snapshot: path, Objects: d.objects, ObjectSeed: venueSeed(c, i) * 31}
	}
	tl := time.Now()
	tier, err := tenant.New(specs, tenant.Options{Workers: nproc(), Seed: c.seed})
	if err != nil {
		return nil, err
	}
	s.times.load = time.Since(tl)
	s.tier = tier
	for _, d := range defs {
		v, _ := tier.Venue(d.id)
		s.venues = append(s.venues, v)
	}
	s.handler = server.NewTenantServer(tier).Handler()
	if err := s.listen(); err != nil {
		return nil, err
	}
	if md != nil {
		tm := time.Now()
		if err := s.setupMoving(*md); err != nil {
			s.close()
			return nil, err
		}
		s.times.moving = time.Since(tm)
	}
	s.times.total = time.Since(t0)
	return s, nil
}

// listen serves the tier on a loopback port. Traced runs wrap the handler
// with the span recorder; untraced runs serve the tier's handler as is.
func (s *stack) listen() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := s.handler
	if s.cfg.trace {
		s.tr = newTracer()
		h = s.tr.wrap(h)
	}
	s.srv = &http.Server{Handler: h}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	s.base = "http://" + ln.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: nproc(),
		MaxConnsPerHost:     nproc(),
		DisableCompression:  true,
	}}
	return nil
}

// close stops the server and waits for it to exit.
func (s *stack) close() {
	if s.mov != nil && s.mov.st != nil {
		s.mov.st.Close()
		s.mov.st = nil
	}
	if s.srv != nil {
		_ = s.srv.Close()
		<-s.served
		s.client.CloseIdleConnections()
		s.srv = nil
	}
}

func (s *stack) spaces() []*indoor.Space {
	out := make([]*indoor.Space, len(s.venues))
	for i, v := range s.venues {
		out[i] = v.Space
	}
	return out
}

func (s *stack) venueIndex(id string) int {
	for i, d := range s.defs {
		if d.id == id {
			return i
		}
	}
	return -1
}

// get asks path and discards the body, as a traced client round trip
// when tracing is on; ref names the pool request it asks (-1: none).
func (s *stack) get(path string, ref int) error {
	return s.tr.clientSpan(spanClient, ref, func(req, span uint64) error {
		_, err := s.call("GET", path, nil, http.StatusOK, req, span, false)
		return err
	})
}

// call sends one request and returns its body. span, when non-zero, is
// the client span id the server-side span records as its parent.
func (s *stack) call(method, path string, body []byte, want int, req, span uint64, keep bool) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if span != 0 {
		hr.Header.Set(hdrReq, strconv.FormatUint(req, 10))
		hr.Header.Set(hdrSpan, strconv.FormatUint(span, 10))
	}
	resp, err := s.client.Do(hr)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out []byte
	if keep {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return out, fmt.Errorf("HTTP status %d for %s %s", resp.StatusCode, method, path)
	}
	return out, nil
}

// newMoving derives the monitors and the seeded object stream of md on
// venue vi (space sp). Monitor points are fixtures of the venue, like its
// floor plan; the seed moves the objects.
func newMoving(c config, md movingDef, sp *indoor.Space, vi int) *movingState {
	m := &movingState{def: md, sp: sp, pos: make(map[int32]spacegen.Motion, md.objects), seed: venueSeed(c, vi)*17 + 5}
	m.points = workload.New(sp, int64(2000+vi)).Points(md.points)
	for j := 0; j < md.ranges+md.knns; j++ {
		mon := monitorDef{qid: int32(j + 1), point: j % md.points}
		if j < md.ranges {
			mon.r = 8 + float64(j%5)*2
		} else {
			mon.knn, mon.k = true, 10
		}
		m.monitors = append(m.monitors, mon)
	}
	return m
}

// setupMoving registers the monitors and seeds the moving objects, over
// HTTP or in process, keeping the benchmark's own copy of both for the
// final check.
func (s *stack) setupMoving(md movingDef) error {
	m := newMoving(s.cfg, md, s.venues[s.venueIndex(md.venue)].Space, s.venueIndex(md.venue))
	s.mov = m
	if md.inProcess {
		m.st = moving.NewStream(m.sp, moving.StreamOptions{})
	}
	for _, mon := range m.monitors {
		p := m.points[mon.point]
		if m.st != nil {
			if _, err := registerMonitor(m.st, mon, p); err != nil {
				return fmt.Errorf("register monitor %d: %w", mon.qid, err)
			}
			continue
		}
		body := map[string]any{"id": mon.qid, "x": p.X, "y": p.Y, "floor": p.Floor, "t": 0}
		if mon.knn {
			body["kind"], body["k"] = "knn", mon.k
		} else {
			body["kind"], body["r"] = "range", mon.r
		}
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		if _, err := s.call("POST", "/v1/venues/"+md.venue+"/monitors", raw, http.StatusCreated, 0, 0, false); err != nil {
			return fmt.Errorf("register monitor %d: %w", mon.qid, err)
		}
	}
	objs := m.initial()
	for lo := 0; lo < len(objs); lo += md.batch {
		if err := s.sendUpdates(m, objs[lo:min(lo+md.batch, len(objs))], nil, 0, 0); err != nil {
			return fmt.Errorf("seed objects: %w", err)
		}
	}
	return nil
}

// registerMonitor registers mon at p on an in-process stream.
func registerMonitor(st *moving.Stream, mon monitorDef, p indoor.Point) ([]moving.Event, error) {
	if mon.knn {
		return st.RegisterKNN(mon.qid, p, mon.k, 0)
	}
	return st.Register(mon.qid, p, mon.r, 0)
}

// initial is every object's first position report.
func (m *movingState) initial() []spacegen.Motion {
	objs := spacegen.Objects(m.sp, m.seed, m.def.objects)
	out := make([]spacegen.Motion, len(objs))
	for i, o := range objs {
		out[i] = spacegen.Motion{ID: o.ID, Loc: o.Loc, Part: o.Part, T: 0.5}
	}
	return out
}

// nextBatch returns the next n updates of the moving-object stream.
func (m *movingState) nextBatch(n int) []spacegen.Motion {
	m.prepare(n)
	out := m.motion[:n:n]
	m.motion = m.motion[n:]
	return out
}

// prepare generates the stream until n updates are pending. The stream is
// generated in seeded chunks; each chunk restarts the objects from fresh
// positions, which is a valid (teleporting) update.
func (m *movingState) prepare(n int) {
	for len(m.motion) < n {
		const steps = 1 << 17
		t0 := 1 + float64(m.chunk)*steps*1e-3
		more := spacegen.MotionStream(m.sp, m.seed+m.chunk*7919, m.def.objects, steps, t0, 1e-3, 0.3)
		m.chunk++
		m.motion = append(m.motion, more...)
	}
}

// sendUpdates POSTs one batch, or applies it with ApplyBatch when the
// state is in process; on success the batch's positions become the
// benchmark's record of where each object is. buf, when non-nil, is reused
// for the body.
func (s *stack) sendUpdates(m *movingState, batch []spacegen.Motion, buf *[]byte, req, span uint64) error {
	if m.st != nil {
		if _, err := m.st.ApplyBatch(toUpdates(batch)); err != nil {
			return err
		}
		for _, u := range batch {
			m.pos[u.ID] = u
		}
		return nil
	}
	var b []byte
	if buf != nil {
		b = (*buf)[:0]
	}
	b = encodeUpdates(b, batch)
	if buf != nil {
		*buf = b
	}
	if _, err := s.call("POST", "/v1/venues/"+m.def.venue+"/updates", b, http.StatusOK, req, span, false); err != nil {
		return err
	}
	for _, u := range batch {
		m.pos[u.ID] = u
	}
	return nil
}

// encodeUpdates appends the JSON body of an update batch.
func encodeUpdates(b []byte, batch []spacegen.Motion) []byte {
	b = append(b, `{"updates":[`...)
	for i, u := range batch {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendInt(b, int64(u.ID), 10)
		b = append(b, `,"x":`...)
		b = strconv.AppendFloat(b, u.Loc.X, 'g', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, u.Loc.Y, 'g', -1, 64)
		b = append(b, `,"floor":`...)
		b = strconv.AppendInt(b, int64(u.Loc.Floor), 10)
		b = append(b, `,"part":`...)
		b = strconv.AppendInt(b, int64(u.Part), 10)
		b = append(b, `,"t":`...)
		b = strconv.AppendFloat(b, u.T, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// heapMB forces a collection and reports the live heap.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// updateProbe sends batches from the moving stream one at a time and
// returns each round trip (the delay until the batch's events are back).
func (s *stack) updateProbe(batches, size int) ([]time.Duration, int64) {
	var rtt []time.Duration
	var failed int64
	var buf []byte
	for i := 0; i < batches; i++ {
		batch := s.mov.nextBatch(size)
		t := time.Now()
		err := s.tr.clientSpan(spanUpdate, -1, func(req, span uint64) error {
			return s.sendUpdates(s.mov, batch, &buf, req, span)
		})
		if err != nil {
			failed++
			continue
		}
		rtt = append(rtt, time.Since(t))
		s.tr.noteBatch(batch)
	}
	return rtt, failed
}

// checkMonitors reads every monitor's result (over HTTP, or from the
// in-process stream) and compares it with the oracle over the last
// position the benchmark sent for every object. It returns how many monitors it read and one message per
// mismatch.
func (s *stack) checkMonitors() (int64, []string, error) {
	m := s.mov
	objs := make([]query.Object, 0, len(m.pos))
	for _, u := range m.pos {
		objs = append(objs, query.Object{ID: u.ID, Loc: u.Loc, Part: u.Part})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	o := oracle.New(m.sp)
	o.SetObjects(objs)
	atPoint := make([][]monitorDef, len(m.points))
	for _, mon := range m.monitors {
		atPoint[mon.point] = append(atPoint[mon.point], mon)
	}
	var mu sync.Mutex
	var bad []string
	var read atomic.Int64
	err := parallel(len(m.points), func(pi int) error {
		nn, err := o.AllDists(m.points[pi])
		if err != nil {
			return err
		}
		for _, mon := range atPoint[pi] {
			w, err := s.monitorResult(mon.qid)
			if err != nil {
				return err
			}
			read.Add(1)
			ok := false
			if mon.knn {
				var a answer
				for _, n := range nn[:min(mon.k, len(nn))] {
					a.dists = append(a.dists, n.Dist)
				}
				ok = a.checkKNN(w.Neighbors)
			} else {
				ok = rangeAnswer(nn, mon.r).checkRange(w.Objects)
			}
			if !ok {
				mu.Lock()
				bad = append(bad, fmt.Sprintf("monitor %d: final result differs from the oracle", mon.qid))
				mu.Unlock()
			}
		}
		return nil
	})
	return read.Load(), bad, err
}

// monitorResult reads monitor qid's current result.
func (s *stack) monitorResult(qid int32) (wire, error) {
	m := s.mov
	if m.st != nil {
		return wire{Objects: m.st.Result(qid), Neighbors: m.st.Neighbors(qid)}, nil
	}
	var w wire
	body, err := s.call("GET", "/v1/venues/"+m.def.venue+"/monitors/"+strconv.Itoa(int(qid))+"/result", nil, http.StatusOK, 0, 0, true)
	if err != nil {
		return w, err
	}
	return w, json.Unmarshal(body, &w)
}

// sortedIDs returns ids sorted ascending (a copy).
func sortedIDs(ids []int32) []int32 {
	out := append([]int32(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
