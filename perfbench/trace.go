package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indoorsq/internal/obs"
	"indoorsq/internal/spacegen"
)

// Headers carrying the client's request id and span id to the server-side
// wrapper, so the handler span names its parent.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// Span names: <module>.<boundary>.
const (
	spanClient     = "net.roundtrip"
	spanUpdate     = "net.update_roundtrip"
	spanHandle     = "server.handle"
	spanHandleUpd  = "server.handle_update"
	spanTenant     = "tenant.venue_call"
	spanEngine     = "engine.call"
	spanApply      = "moving.apply_batch"
	spanBatch      = "exec.batch"
	spanEngineStep = "engine." // + obs stage name
)

// span is one recorded interval. Spans of one request share Req; Parent
// is the span that caused this one (0: a root). Times are nanoseconds
// since the tracer started.
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Ref is the pool index of the request a client span asked; Engine
	// and Op are what served a handler or engine span; NVD its door count.
	Ref    int    `json:"ref,omitempty"`
	Engine string `json:"engine,omitempty"`
	Op     string `json:"op,omitempty"`
	NVD    int    `json:"nvd,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. While on is false the
// handler wrapper passes requests straight through, so the untraced half
// of a traced run pays one atomic load per request.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	on      atomic.Bool
	mu      sync.Mutex
	spans   []span
	batches [][]spacegen.Motion // update batches sent while on, in order
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(sp ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp...)
	t.mu.Unlock()
}

// clientSpan times fn as a client round trip; fn receives the request id
// and span id to send along. A nil or switched-off tracer just calls fn.
func (t *tracer) clientSpan(name string, ref int, fn func(req, span uint64) error) error {
	if t == nil || !t.on.Load() {
		return fn(0, 0)
	}
	id := t.ids.Add(1)
	start := t.now()
	err := fn(id, id)
	t.add(span{Name: name, ID: id, Req: id, Start: start, End: t.now(), Ref: ref})
	return err
}

// noteBatch keeps an update batch sent while tracing, for the replay.
func (t *tracer) noteBatch(b []spacegen.Motion) {
	if t != nil && t.on.Load() {
		t.mu.Lock()
		t.batches = append(t.batches, b)
		t.mu.Unlock()
	}
}

// wrap records a span around the tier's handler and binds an obs.Trace
// into the request context, so the engine's own stage spans (host lookup,
// index probe, graph expansion, refine) become the handler span's children.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get(hdrSpan), 10, 64)
		id := t.ids.Add(1)
		ot := obs.NewTrace()
		start := t.now()
		h.ServeHTTP(w, r.WithContext(obs.WithTrace(r.Context(), ot)))
		end := t.now()
		sp := span{Name: spanHandle, ID: id, Parent: parent, Req: req, Start: start, End: end}
		if r.Method == http.MethodPost {
			sp.Name = spanHandleUpd
		}
		if qs := ot.Queries(); len(qs) > 0 {
			sp.Engine, sp.Op, sp.NVD = qs[0].Engine, qs[0].Op, qs[0].VisitedDoors
		}
		t.add(append([]span{sp}, t.stageSpans(ot, id, req, start)...)...)
	})
}

// stageSpans converts an obs.Trace's stage spans (offsets from the trace's
// creation, taken just before base) into child spans of parent.
func (t *tracer) stageSpans(ot *obs.Trace, parent, req uint64, base int64) []span {
	var out []span
	for _, st := range ot.Spans() {
		s := base + int64(st.Start)
		out = append(out, span{Name: spanEngineStep + st.Stage.String(), ID: t.ids.Add(1), Parent: parent, Req: req, Start: s, End: s + int64(st.Dur)})
	}
	return out
}

// byName returns the recorded spans of one name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the parts of
// its interval its children cover.
func (t *tracer) selfTimes() map[uint64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(t.spans))
	for _, s := range t.spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return time.Duration(total)
}

// write saves every span as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	t.mu.Lock()
	err = json.NewEncoder(bw).Encode(t.spans)
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
