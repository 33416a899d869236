// Command perfbench is the repository's benchmark: one command that boots
// the serving stack for a named workload, checks every answer against
// internal/oracle, and prints every end-to-end metric (or, with -trace 1,
// every per-layer metric) by name with its unit.
//
//	perfbench -workload serve_mix -seed 1 -seconds 8 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A wrong answer prints
// "correct": false and exits 1; a set-up error exits 1 without a result.
//
// End-to-end numbers are taken with tracing off. A traced run (-trace 1)
// repeats the workload with spans recorded at every layer boundary the
// benchmark can see from outside the program (client round trip, HTTP
// handler, tenant venue call, direct engine call, engine stages bound
// through obs.Trace), writes them to a JSON file under -dir, and derives
// the per-layer metrics from them plus serial replays and micro-timings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"indoorsq/internal/bench"
)

// metricDef declares one reported metric. The lists below are the
// benchmark's schema; BENCHMARK.json repeats them and the tests assert the
// two agree and that every run emits exactly these names.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, emitted by every
// untraced run on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"success_frac", "frac"},
	{"ops_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"engine_geomean_ops_per_s", "1/s"},
	{"update_batch_p90_ms", "ms"},
}

var opNames = []string{"range", "knn", "spd"}

// perLayer are the single-layer metrics, emitted by every traced run on
// every workload.
func perLayer() []metricDef {
	defs := []metricDef{
		{"failed_frac", "frac"},
		{"net.roundtrip_self_us_p50", "us"},
		{"server.handle_us_p50", "us"},
		{"server.handle_us_p99", "us"},
		{"server.self_us_p50", "us"},
		{"server.allocs_per_req", "count"},
		{"server.alloc_bytes_per_req", "B"},
		{"server.update_self_us_per_update", "us"},
		{"tenant.self_us_p50", "us"},
		{"router.choose_ns", "ns"},
		{"router.nonfinal_frac", "frac"},
	}
	for _, e := range bench.EngineNames {
		for _, op := range opNames {
			defs = append(defs,
				metricDef{"engine." + e + "." + op + ".us_p50", "us"},
				metricDef{"engine." + e + "." + op + ".nvd", "count"})
		}
		defs = append(defs, metricDef{"engine." + e + ".work_kb_p50", "KB"})
		for _, st := range engineStages[e] {
			defs = append(defs, metricDef{"engine." + e + "." + st + ".self_us", "us"})
		}
		defs = append(defs,
			metricDef{"engine." + e + ".build_s", "s"},
			metricDef{"engine." + e + ".size_mb", "MB"})
	}
	return append(defs,
		metricDef{"exec.busy_frac", "frac"},
		metricDef{"indoor.host_lookup_ns", "ns"},
		metricDef{"indoor.door_dist_ns", "ns"},
		metricDef{"indoor.distcache_hit_frac", "frac"},
		metricDef{"doorgraph.sweep_ms", "ms"},
		metricDef{"doorgraph.settled_per_query", "count"},
		metricDef{"reach.prune_hit_frac", "frac"},
		metricDef{"moving.apply_us_per_update", "us"},
		metricDef{"moving.touched_per_update", "count"},
		metricDef{"moving.events_per_update", "count"},
		metricDef{"moving.register_ms_per_monitor", "ms"},
		metricDef{"moving.result_us_p50", "us"},
		metricDef{"bundle.build_s", "s"},
		metricDef{"bundle.write_s", "s"},
		metricDef{"bundle.load_s", "s"},
		metricDef{"bundle.artifact_mb", "MB"},
		metricDef{"runtime.alloc_bytes_per_op", "B"},
		metricDef{"runtime.gc_cpu_frac", "frac"},
		metricDef{"loadgen.late_p99_us", "us"},
		metricDef{"trace.overhead_frac", "frac"},
	)
}

// engineStages lists, per engine, the obs stages it opens spans for; a
// stage an engine never enters would read 0 on every run and is left out.
var engineStages = map[string][]string{
	"IDModel": {"host_lookup", "graph_expand", "refine"},
	"IDIndex": {"host_lookup", "index_probe", "refine"},
	"CIndex":  {"host_lookup", "graph_expand", "refine"},
	"IPTree":  {"host_lookup", "index_probe", "graph_expand", "refine"},
	"VIPTree": {"host_lookup", "index_probe", "graph_expand", "refine"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string
	// tiny shrinks every venue and count so the tests run in seconds.
	tiny bool
}

func (c config) dur(frac float64) time.Duration {
	return time.Duration(c.seconds * frac * float64(time.Second))
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve_mix, paper_engines or track_ingest")
		seed    = flag.Int64("seed", 1, "input seed: equal seeds give equal inputs")
		seconds = flag.Float64("seconds", 8, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		dir     = flag.String("dir", ".bench_build/perfbench", "directory for snapshots and trace output")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fail(fmt.Errorf("unknown workload %q (have %v)", *name, workloadNames()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("bad -seconds %v or -trace %d", *seconds, *trace))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%v trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		*name, *seed, *seconds, *trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := w(config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir})
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*result, error){
	"serve_mix":     runServeMix,
	"paper_engines": runPaperEngines,
	"track_ingest":  runTrackIngest,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// nproc bounds every load generator, pool and client count.
func nproc() int { return runtime.NumCPU() }
