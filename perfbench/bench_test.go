package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/query"
)

func tinyConfig(t *testing.T, seed int64, trace bool) config {
	return config{workload: strings.ReplaceAll(t.Name(), "/", "_"), seed: seed, seconds: 0.4, trace: trace, dir: t.TempDir(), tiny: true}
}

// TestEveryMetricEmitted runs every workload at tiny sizes, untraced and
// traced, and checks that the run is correct, nothing failed, and exactly
// the declared metrics come out, each with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				res, err := workloads[name](tinyConfig(t, 3, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", d.name)
					case m.Unit != d.unit:
						t.Errorf("metric %s: unit %q, want %q", d.name, m.Unit, d.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s: value %v", d.name, m.Value)
					}
				}
				if !trace && res.Metrics["success_frac"].Value != 1 {
					t.Errorf("success_frac %v, want 1", res.Metrics["success_frac"].Value)
				}
				if trace && res.Metrics["failed_frac"].Value != 0 {
					t.Errorf("failed_frac %v, want 0", res.Metrics["failed_frac"].Value)
				}
			})
		}
	}
}

// streams renders every input stream the workloads derive from a seed:
// the serve_mix request pool and traffic order, the paper triples, the
// track_ingest reader sequence, and the update batches of both moving
// states.
func streams(t *testing.T, c config) string {
	var b strings.Builder
	space := func(d venueDef, i int) *indoor.Space {
		sp, _, err := d.space(i)
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	updates := func(md *movingDef, sp *indoor.Space, vi int) {
		m := newMoving(c, *md, sp, vi)
		b.Write(encodeUpdates(nil, m.nextBatch(64)))
	}

	defs, mixes, md := serveMixDefs(c)
	var spaces []*indoor.Space
	for i, d := range defs {
		spaces = append(spaces, space(d, i))
	}
	pool, stream := serveMixInputs(c, defs, mixes, spaces)
	for _, r := range pool {
		b.WriteString(r.path)
	}
	fmt.Fprint(&b, stream[:512])
	updates(md, spaces[len(spaces)-1], len(spaces)-1)

	pdefs, pmd := paperDefs(c)
	psp := space(pdefs[0], 0)
	for _, p := range paperPairs(psp, c, 20, 16) {
		fmt.Fprint(&b, pairOps(p, 12, 5))
	}
	updates(pmd, psp, 0)

	idefs, mix, imd, _ := ingestDefs(c)
	isp := space(idefs[0], 0)
	ipool, _, reads := ingestInputs(c, idefs, mix, isp, imd.ranges+imd.knns)
	for _, r := range ipool {
		b.WriteString(r.path)
	}
	fmt.Fprint(&b, reads[:512])
	updates(imd, isp, 0)
	return b.String()
}

func TestSeedDeterminesStreams(t *testing.T) {
	a := streams(t, tinyConfig(t, 5, false))
	if b := streams(t, tinyConfig(t, 5, false)); a != b {
		t.Fatal("equal seeds gave different request, update or op streams")
	}
	if b := streams(t, tinyConfig(t, 6, false)); a == b {
		t.Fatal("different seeds gave identical streams")
	}
}

// TestCorruptedAnswerCaught checks that the answer gate rejects each kind
// of wrong answer, in process and on the wire.
func TestCorruptedAnswerCaught(t *testing.T) {
	ids := []int32{3, 7, 9}
	rng := request{op: exec.Op{Kind: exec.RangeQ, R: 5}, want: answer{ids: ids}}
	knn := request{op: exec.Op{Kind: exec.KNNQ, K: 2}, want: answer{dists: []float64{1, 2}}}
	spd := request{op: exec.Op{Kind: exec.SPDQ}, want: answer{dist: 42}}

	good := []struct {
		r   request
		res exec.Result
	}{
		{rng, exec.Result{IDs: []int32{9, 3, 7}}},
		{knn, exec.Result{Neighbors: []query.Neighbor{{ID: 1, Dist: 1}, {ID: 2, Dist: 2 + 1e-9}}}},
		{spd, exec.Result{Path: query.Path{Dist: 42 + 1e-9}}},
	}
	for _, g := range good {
		if !g.r.check(g.res) {
			t.Fatalf("correct answer rejected: %+v", g.res)
		}
	}
	bad := []struct {
		r   request
		res exec.Result
	}{
		{rng, exec.Result{IDs: []int32{3, 7}}},
		{rng, exec.Result{IDs: []int32{3, 7, 9, 11}}},
		{knn, exec.Result{Neighbors: []query.Neighbor{{ID: 1, Dist: 1}}}},
		{knn, exec.Result{Neighbors: []query.Neighbor{{ID: 1, Dist: 1}, {ID: 2, Dist: 2.001}}}},
		{spd, exec.Result{Path: query.Path{Dist: 42.001}}},
		{spd, exec.Result{Err: query.ErrUnreachable}},
	}
	for _, b := range bad {
		if b.r.check(b.res) {
			t.Errorf("corrupted answer accepted: %+v", b.res)
		}
	}
	if err := rng.checkBody([]byte(`{"objects":[3,7,9],"engine":"IDModel"}`)); err != nil {
		t.Fatal(err)
	}
	if err := rng.checkBody([]byte(`{"objects":[3,9],"engine":"IDModel"}`)); err == nil {
		t.Error("corrupted response body accepted")
	}
	// A range id the oracle puts within tol of the radius may go either way.
	edge := rangeAnswer([]query.Neighbor{{ID: 1, Dist: 1}, {ID: 2, Dist: 5 + tol/2}}, 5)
	if !edge.checkRange([]int32{1}) || !edge.checkRange([]int32{1, 2}) || edge.checkRange([]int32{2}) {
		t.Error("range boundary tolerance misapplied")
	}
}

// TestCorruptedEngineCaught breaks one engine of a booted tiny stack and
// checks that the engine probe reports its answers as wrong.
func TestCorruptedEngineCaught(t *testing.T) {
	c := tinyConfig(t, 4, false)
	defs, mixes, _ := serveMixDefs(c)
	s, err := boot(c, defs, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	pool, _ := serveMixInputs(c, defs, mixes, s.spaces())
	if err := solve(s, pool); err != nil {
		t.Fatal(err)
	}
	if _, _, _, bad := engineProbe(s, pool, 0, 0); bad != 0 {
		t.Fatalf("%d wrong answers from intact engines", bad)
	}
	s.venues[0].Engines["CIndex"] = corrupt{s.venues[0].Engines["CIndex"]}
	if _, _, _, bad := engineProbe(s, pool, 0, 0); bad == 0 {
		t.Fatal("corrupted engine passed the answer gate")
	}
}

// corrupt drops one id from every range answer and stretches every
// distance.
type corrupt struct{ query.Engine }

func (e corrupt) Range(p indoor.Point, r float64, st *query.Stats) ([]int32, error) {
	ids, err := e.Engine.Range(p, r, st)
	if len(ids) > 0 {
		ids = ids[1:]
	} else {
		ids = []int32{-1}
	}
	return ids, err
}

func (e corrupt) KNN(p indoor.Point, k int, st *query.Stats) ([]query.Neighbor, error) {
	nn, err := e.Engine.KNN(p, k, st)
	for i := range nn {
		nn[i].Dist *= 1.01
	}
	return nn, err
}

func (e corrupt) SPD(p, q indoor.Point, st *query.Stats) (query.Path, error) {
	path, err := e.Engine.SPD(p, q, st)
	path.Dist += 1
	return path, err
}

// TestMovingInProcess checks that the untraced moving state of serve_mix
// and paper_engines never reaches the server: the update probe and the
// monitor check run on the benchmark's own stream, the server's stream for
// the venue stays empty, and a wrong final membership is still caught.
func TestMovingInProcess(t *testing.T) {
	c := tinyConfig(t, 4, false)
	sdefs, _, smd := serveMixDefs(c)
	pdefs, pmd := paperDefs(c)
	for _, w := range []struct {
		defs []venueDef
		md   *movingDef
	}{{sdefs, smd}, {pdefs, pmd}} {
		s, err := boot(c, w.defs, w.md, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		if s.mov.st == nil {
			t.Fatalf("%s: untraced moving state is not in process", w.md.venue)
		}
		if rtt, bad := s.updateProbe(4, 16); bad != 0 || len(rtt) != 4 {
			t.Fatalf("probe: %d round trips, %d failed", len(rtt), bad)
		}
		if _, bad, err := s.checkMonitors(); err != nil || len(bad) != 0 {
			t.Fatalf("monitor check: %v %v", err, bad)
		}
		body, err := s.call("GET", "/v1/venues/"+w.md.venue+"/monitors", nil, 200, 0, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		var list struct {
			Monitors []json.RawMessage `json:"monitors"`
			Objects  int               `json:"objects"`
		}
		if err := json.Unmarshal(body, &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Monitors) != 0 || list.Objects != 0 {
			t.Fatalf("server stream holds %d monitors, %d objects", len(list.Monitors), list.Objects)
		}
		// Record every object at another object's position without sending it.
		var ids []int32
		for id := range s.mov.pos {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		sent := maps.Clone(s.mov.pos)
		for i, id := range ids {
			u := sent[ids[(i+len(ids)/2)%len(ids)]]
			u.ID = id
			s.mov.pos[id] = u
		}
		if _, bad, _ := s.checkMonitors(); len(bad) == 0 {
			t.Fatalf("%s: wrong monitor membership passed the check", w.md.venue)
		}
	}
}

// TestBenchmarkJSONMatchesSchema keeps BENCHMARK.json and the metric
// tables in this package in step.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("workloads %v, want %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer())
}
