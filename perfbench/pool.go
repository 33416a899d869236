package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"indoorsq/internal/bench"
	"indoorsq/internal/exec"
	"indoorsq/internal/indoor"
	"indoorsq/internal/oracle"
	"indoorsq/internal/query"
	"indoorsq/internal/workload"
)

// tol is the distance tolerance of every answer check: kNN and SPD
// distances must agree with the oracle within it, and a range id may only
// differ from the oracle's when its distance is within tol of the radius.
const tol = 1e-6

// request is one distinct query of a workload: the op, the HTTP path that
// asks it, and the oracle's answer.
type request struct {
	venue int
	op    exec.Op
	path  string
	want  answer
}

// answer is the checkable part of a query result.
type answer struct {
	ids   []int32   // range: ascending
	dists []float64 // knn: ascending
	dist  float64   // spd
	// near are the oracle's (id, dist) pairs within tol of a range radius.
	near map[int32]bool
}

func (a answer) checkRange(ids []int32) bool {
	got := sortedIDs(ids)
	i, j := 0, 0
	for i < len(got) || j < len(a.ids) {
		switch {
		case i < len(got) && j < len(a.ids) && got[i] == a.ids[j]:
			i++
			j++
		case j >= len(a.ids) || (i < len(got) && got[i] < a.ids[j]):
			if !a.near[got[i]] {
				return false
			}
			i++
		default:
			if !a.near[a.ids[j]] {
				return false
			}
			j++
		}
	}
	return true
}

func (a answer) checkKNN(nn []query.Neighbor) bool {
	if len(nn) != len(a.dists) {
		return false
	}
	for i, n := range nn {
		if math.Abs(n.Dist-a.dists[i]) > tol {
			return false
		}
	}
	return true
}

func (a answer) checkSPD(d float64) bool { return math.Abs(d-a.dist) <= tol }

// check compares one engine result with the oracle's answer.
func (r *request) check(res exec.Result) bool {
	if res.Err != nil {
		return false
	}
	switch r.op.Kind {
	case exec.RangeQ:
		return r.want.checkRange(res.IDs)
	case exec.KNNQ:
		return r.want.checkKNN(res.Neighbors)
	default:
		return r.want.checkSPD(res.Path.Dist)
	}
}

// wire is the union of the range, knn and spd response bodies.
type wire struct {
	Objects   []int32          `json:"objects"`
	Neighbors []query.Neighbor `json:"neighbors"`
	Dist      float64          `json:"dist"`
	Engine    string           `json:"engine"`
}

func (r *request) checkBody(body []byte) error {
	var w wire
	if err := json.Unmarshal(body, &w); err != nil {
		return err
	}
	res := exec.Result{IDs: w.Objects, Neighbors: w.Neighbors, Path: query.Path{Dist: w.Dist}}
	if !r.check(res) {
		return fmt.Errorf("answer of %s (engine %s) differs from the oracle", r.path, w.Engine)
	}
	return nil
}

func fmtF(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func pointQuery(p indoor.Point, suffix string) string {
	return "x" + suffix + "=" + fmtF(p.X) + "&y" + suffix + "=" + fmtF(p.Y) + "&floor" + suffix + "=" + strconv.Itoa(int(p.Floor))
}

// requestFor renders op as a request on venue vi, whose id is id.
func requestFor(vi int, id string, op exec.Op) request {
	base := "/v1/venues/" + id + "/"
	var path string
	switch op.Kind {
	case exec.RangeQ:
		path = base + "range?" + pointQuery(op.P, "") + "&r=" + fmtF(op.R)
	case exec.KNNQ:
		path = base + "knn?" + pointQuery(op.P, "") + "&k=" + strconv.Itoa(op.K)
	default:
		path = base + "spd?" + pointQuery(op.P, "") + "&" + pointQuery(op.Q, "2")
	}
	return request{venue: vi, op: op, path: path}
}

// mixSpec shapes one venue's distinct request pool.
type mixSpec struct {
	points, requests int
	radius           float64
	k                int
	// knn, rng are the shares of kNN and range requests; the rest are SPD
	// (spd false: the rest are range too).
	knn, rng float64
	spd      bool
}

// kind returns the op kind of the request at popularity rank j. Kinds are
// spread evenly over the ranks (a low-discrepancy sequence) rather than
// drawn, so the hottest keys have the same op mix for every seed and a
// seed moves only where the queries are.
func (m mixSpec) kind(j int) exec.Kind {
	f := math.Mod(float64(j)*0.6180339887498949, 1)
	switch {
	case f < m.knn:
		return exec.KNNQ
	case f < m.knn+m.rng || !m.spd:
		return exec.RangeQ
	default:
		return exec.SPDQ
	}
}

// makePool draws venue vi's distinct requests from its seeded point pool,
// in popularity-rank order.
func makePool(sp *indoor.Space, vi int, id string, m mixSpec, seed int64) []request {
	pts := workload.New(sp, seed).Points(m.points)
	rng := rand.New(rand.NewSource(seed + 1))
	out := make([]request, 0, m.requests)
	for j := 0; j < m.requests; j++ {
		p := pts[rng.Intn(len(pts))]
		op := exec.Op{Kind: m.kind(j), P: p}
		switch op.Kind {
		case exec.KNNQ:
			op.K = m.k
		case exec.RangeQ:
			op.R = m.radius
		default:
			op.Q = pts[rng.Intn(len(pts))]
			for op.Q == p && len(pts) > 1 {
				op.Q = pts[rng.Intn(len(pts))]
			}
		}
		out = append(out, requestFor(vi, id, op))
	}
	return out
}

// solve fills every request's oracle answer, nproc venues' worth at a
// time.
func solve(s *stack, pool []request) error {
	oracles := make([]*oracle.Engine, len(s.venues))
	for i, v := range s.venues {
		oracles[i] = oracle.New(v.Space)
		oracles[i].SetObjects(v.Objects)
	}
	return parallel(len(pool), func(i int) error {
		r := &pool[i]
		o := oracles[r.venue]
		switch r.op.Kind {
		case exec.RangeQ:
			nn, err := o.AllDists(r.op.P)
			if err != nil {
				return err
			}
			r.want = rangeAnswer(nn, r.op.R)
		case exec.KNNQ:
			nn, err := o.KNN(r.op.P, r.op.K, nil)
			if err != nil {
				return err
			}
			for _, n := range nn {
				r.want.dists = append(r.want.dists, n.Dist)
			}
		default:
			p, err := o.SPD(r.op.P, r.op.Q, nil)
			if err != nil {
				return err
			}
			r.want.dist = p.Dist
		}
		return nil
	})
}

// rangeAnswer derives a range answer from the oracle's sorted distances.
func rangeAnswer(nn []query.Neighbor, r float64) answer {
	var a answer
	for _, n := range nn {
		if n.Dist > r+tol {
			break
		}
		if n.Dist <= r {
			a.ids = append(a.ids, n.ID)
		}
		if math.Abs(n.Dist-r) <= tol {
			if a.near == nil {
				a.near = map[int32]bool{}
			}
			a.near[n.ID] = true
		}
	}
	a.ids = sortedIDs(a.ids)
	return a
}

// parallel runs fn(0..n-1) on nproc goroutines and returns the first error.
func parallel(n int, fn func(i int) error) error {
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// checkOverHTTP asks every pooled request once through the router and once
// pinned to each engine, and compares every answer with the oracle's.
func checkOverHTTP(s *stack, pool []request) (attempted int64, err error) {
	for i := range pool {
		r := &pool[i]
		for _, e := range append([]string{""}, bench.EngineNames...) {
			path := r.path
			if e != "" {
				path += "&engine=" + e
			}
			attempted++
			body, err := s.call("GET", path, nil, http.StatusOK, 0, 0, true)
			if err != nil {
				return attempted, err
			}
			if err := r.checkBody(body); err != nil {
				return attempted, err
			}
		}
	}
	return attempted, nil
}

// engineProbe runs every pooled op directly on each of the five engines of
// its venue through an exec.Pool with nproc workers, checking every answer.
// Engines take turns in rounds of at least minRound of pool time each
// (whole passes over the pool) until d has elapsed. It returns each
// engine's median per-round query rate and the pool's busy fraction
// (summed query time over wall x workers).
func engineProbe(s *stack, pool []request, d, minRound time.Duration) (rates map[string]float64, busy float64, attempted, bad int64) {
	byVenue := make([][]exec.Op, len(s.venues))
	idx := make([][]int, len(s.venues))
	for i, r := range pool {
		byVenue[r.venue] = append(byVenue[r.venue], r.op)
		idx[r.venue] = append(idx[r.venue], i)
	}
	p := &exec.Pool{Workers: nproc()}
	perRound := map[string][]float64{}
	var query, wall float64
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < d; round++ {
		for j := range bench.EngineNames {
			e := bench.EngineNames[(round+j)%len(bench.EngineNames)]
			var n int
			var w float64
			for pass := 0; pass == 0 || w < minRound.Seconds(); pass++ {
				for vi, ops := range byVenue {
					if len(ops) == 0 {
						continue
					}
					res, b := p.RunCtx(context.Background(), s.venues[vi].Engines[e], ops)
					for k, rr := range res {
						attempted++
						if !pool[idx[vi][k]].check(rr) {
							bad++
						}
					}
					n += len(ops)
					w += b.Wall.Seconds()
					wall += b.Wall.Seconds()
					query += b.QueryTime.Seconds()
				}
			}
			perRound[e] = append(perRound[e], float64(n)/w)
		}
	}
	rates = map[string]float64{}
	for e, xs := range perRound {
		rates[e] = median(xs)
	}
	return rates, query / (wall * float64(nproc())), attempted, bad
}

func geomeanRates(rates map[string]float64) float64 {
	xs := make([]float64, 0, len(rates))
	for _, e := range bench.EngineNames {
		xs = append(xs, rates[e])
	}
	return geomean(xs)
}

// makeStream returns a seeded traffic sequence over a pool: venues drawn with Zipf
// popularity (pool venue 0 most popular), then a request within the venue
// drawn with Zipf skew, so exact keys repeat.
func makeStream(pool []request, nVenues int, length int, seed int64) []int32 {
	byVenue := make([][]int32, nVenues)
	for i, r := range pool {
		byVenue[r.venue] = append(byVenue[r.venue], int32(i))
	}
	rng := rand.New(rand.NewSource(seed))
	vz := newZipf(nVenues, 1.0)
	rz := make([]zipfIndex, nVenues)
	for v := range rz {
		rz[v] = newZipf(len(byVenue[v]), 0.9)
	}
	out := make([]int32, length)
	for i := range out {
		v := vz.draw(rng.Float64())
		out[i] = byVenue[v][rz[v].draw(rng.Float64())]
	}
	return out
}

// routersExploit reports whether every venue's router has left its
// explore phase for every query class in ops.
func routersExploit(s *stack, ops []string) bool {
	for _, v := range s.venues {
		for _, d := range v.Router().Decisions() {
			for _, op := range ops {
				if d.Op == op && d.Mode != "exploit" {
					return false
				}
			}
		}
	}
	return true
}
