// Command perfbench is U-P2P's end-to-end benchmark. It builds one of
// three workloads from a seed, runs a fixed number of user operations
// against it, checks the answers, and prints every metric by name with
// its unit; the last line of its output is one JSON object.
//
//	go run . --workload tcp-mix --seed 1 --seconds 10 --trace 0
//
// Untraced runs (--trace 0) report the end-to-end metrics. A traced
// run (--trace 1) wraps each layer boundary, records spans and a CPU
// profile of the timed phase, and reports the per-layer metrics. See
// README.md for why each workload and metric was chosen.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// errGate marks a failed correctness check.
var errGate = errors.New("correctness gate")

// passConfig is what one pass of a workload is given.
type passConfig struct {
	seed   int64
	ops    int // timed units
	warmup int // untimed units run first
	// spans, when set, is the traced run's span store; profile is where
	// the timed phase's CPU profile goes.
	spans   *spanStore
	profile string
	dir     string // scratch space of the pass
}

// passResult is what one pass measured.
type passResult struct {
	setup        time.Duration
	warmup       int
	warmupFailed int
	planned      int // timed operations the driver decided on
	attempted    int
	failed       int
	firstErr     error
	lat          [numClasses][]float64 // ms
	recall       []float64
	ph           phase
	msgs, bytes  int64
	heapMiB      float64
	traceHash    uint64
	localHits    int
	delta        *metrics.Snapshot // registry change over the timed phase
	layer        map[string]float64
}

type runner interface {
	pass(passConfig) (*passResult, error)
}

// workload is one named benchmark workload at its two sizes: full,
// and tiny for the self-test.
type workload struct {
	name string
	full runner
	tiny runner
	// rate sizes a run: it issues rate × --seconds timed units, split
	// evenly over the passes. It is a constant, not a measurement, so a
	// run's work depends only on its arguments.
	rate float64
	// warmup is the untimed units each pass runs before timing.
	warmup int
}

var workloads = []workload{
	{
		name: "tcp-mix",
		full: &tcpWorkload{nodes: 24, comms: 8, perComm: 50},
		tiny: &tcpWorkload{nodes: 6, comms: 4, perComm: 10},
		rate: 650, warmup: 60,
	},
	{
		name: "sim-dht-churn",
		full: &simWorkload{proto: sim.DHT, peers: 500, comms: 20, perComm: 50, joinPer: 4,
			churn: true, refreshEvery: 30 * time.Second},
		tiny: &simWorkload{proto: sim.DHT, peers: 60, comms: 8, perComm: 10, joinPer: 3,
			churn: true, refreshEvery: 10 * time.Second},
		rate: 200, warmup: 40,
	},
	{
		name: "sim-gnutella-flood",
		full: &simWorkload{proto: sim.Gnutella, peers: 500, comms: 20, perComm: 50, joinPer: 4},
		tiny: &simWorkload{proto: sim.Gnutella, peers: 60, comms: 8, perComm: 10, joinPer: 3},
		rate: 600, warmup: 40,
	},
}

// opMix is every workload's share of each draw: a search, a discover,
// a publish (a /create on tcp-mix) and a retrieve, which is always
// followed by a view of the fetched object.
var opMix = [numClasses]float64{opSearch: 0.70, opDiscover: 0.10, opPublish: 0.10, opRetrieve: 0.10}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// tiny selects the self-test size; out is where scratch state,
	// span dumps and profiles go.
	tiny bool
	out  string
}

func parseFlags(args []string) (options, error) {
	o := options{out: filepath.Join(".bench_build", "perfbench")}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: tcp-mix, sim-dht-churn or sim-gnutella-flood")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs derive from")
	fs.IntVar(&o.seconds, "seconds", 10, "sizes the run: rate × seconds timed operations")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	o.trace = trace == 1
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ok, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// run runs one workload and prints its report. It returns whether the
// correctness gate passed; an error means no report was printed.
func run(o options, stdout io.Writer) (bool, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return false, err
	}
	r := w.full
	if o.tiny {
		r = w.tiny
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return false, err
	}
	// Untraced runs make three identical passes: set-up time is their
	// median, and the sims must agree across them. A traced run makes an
	// untraced pass and a traced one, which is its overhead baseline.
	passes := 3
	if o.trace {
		passes = 2
	}
	// Every pass runs a third of the run's units, so a traced pass is
	// the same size as an untraced one.
	units := int(math.Round(w.rate * float64(o.seconds) / 3))
	warmup := w.warmup
	if o.tiny {
		warmup = 5
	}
	var results []*passResult
	var spans *spanStore
	profile := ""
	for i := 0; i < passes; i++ {
		pc := passConfig{seed: o.seed, ops: units, warmup: warmup, dir: filepath.Join(o.out, fmt.Sprintf("pass%d", i))}
		if o.trace && i == 1 {
			spans = newSpanStore()
			profile = filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", w.name, o.seed))
			pc.spans, pc.profile = spans, profile
		}
		res, err := r.pass(pc)
		if err != nil {
			if errors.Is(err, errGate) {
				fmt.Fprintf(stdout, "gate failed: %v\n", err)
				printJSON(stdout, false, 0, 0, map[string]metric{})
				return false, nil
			}
			return false, fmt.Errorf("%s pass %d: %w", w.name, i+1, err)
		}
		results = append(results, res)
	}
	problems := gate(w, results)
	agg := aggregate(results)
	fmt.Fprintf(stdout, "workload %s  seed %d  %d passes × %d timed units (+%d warm-up units each)\n",
		w.name, o.seed, passes, units, warmup)
	for _, p := range problems {
		fmt.Fprintf(stdout, "gate failed: %s\n", p)
	}
	var ms map[string]metric
	if o.trace {
		ms, err = layerMetrics(results[0], results[1], profile)
		if err != nil {
			return false, err
		}
		if err := spans.writeJSONL(spanFile(o.out, w.name, o.seed)); err != nil {
			return false, err
		}
	} else {
		ms = agg.endToEnd()
	}
	printTable(stdout, ms, agg)
	correct := len(problems) == 0
	printJSON(stdout, correct, agg.attempted, agg.failed, ms)
	return correct, nil
}

// gate is the correctness check over a run's passes: no operation
// failed or went missing, and the sims' passes, built from one seed,
// agree exactly.
func gate(w workload, results []*passResult) []string {
	var problems []string
	for i, r := range results {
		if r.failed > 0 || r.warmupFailed > 0 {
			problems = append(problems, fmt.Sprintf("pass %d: %d timed and %d warm-up operations failed (first: %v)",
				i+1, r.failed, r.warmupFailed, r.firstErr))
		}
		samples := 0
		for _, l := range r.lat {
			samples += len(l)
		}
		if r.attempted != r.planned || samples+r.failed != r.attempted {
			problems = append(problems, fmt.Sprintf("pass %d: %d operations planned, %d attempted, %d measured, %d failed",
				i+1, r.planned, r.attempted, samples, r.failed))
		}
	}
	if _, isSim := w.full.(*simWorkload); !isSim {
		return problems
	}
	first := results[0]
	for i, r := range results[1:] {
		if r.traceHash != first.traceHash {
			problems = append(problems, fmt.Sprintf("pass %d: trace hash %016x, pass 1 had %016x", i+2, r.traceHash, first.traceHash))
		}
		if mean(r.recall) != mean(first.recall) {
			problems = append(problems, fmt.Sprintf("pass %d: recall %v, pass 1 had %v", i+2, mean(r.recall), mean(first.recall)))
		}
		if r.msgs != first.msgs || r.attempted != first.attempted {
			problems = append(problems, fmt.Sprintf("pass %d: %d messages over %d operations, pass 1 had %d over %d",
				i+2, r.msgs, r.attempted, first.msgs, first.attempted))
		}
	}
	return problems
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return div(s, float64(len(xs)))
}

// aggregated pools the passes of a run.
type aggregated struct {
	passes      []*passResult
	setups      []float64
	heaps       []float64
	lat         [numClasses][]float64
	recall      []float64
	attempted   int
	failed      int
	mallocs     uint64
	msgs, bytes int64
	warmup      int
	localHits   int
}

func aggregate(results []*passResult) *aggregated {
	a := &aggregated{passes: results}
	for _, r := range results {
		a.setups = append(a.setups, r.setup.Seconds())
		a.heaps = append(a.heaps, r.heapMiB)
		for c := range a.lat {
			a.lat[c] = append(a.lat[c], r.lat[c]...)
		}
		a.recall = append(a.recall, r.recall...)
		a.attempted += r.attempted
		a.failed += r.failed
		a.mallocs += r.ph.mallocs
		a.msgs += r.msgs
		a.bytes += r.bytes
		a.warmup += r.warmup
		a.localHits += r.localHits
	}
	return a
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // samples behind a percentile, for the table
}

// endToEnd computes the user-visible metrics of an untraced run.
// Latency percentiles are pooled over every pass's samples.
// Throughput and CPU are taken per pass and the median pass is
// reported, so one pass disturbed by the machine does not move them.
func (a *aggregated) endToEnd() map[string]metric {
	ops := float64(a.attempted)
	search := a.lat[opSearch]
	var opsPerS, cpuPerOp []float64
	for _, r := range a.passes {
		n := float64(r.attempted)
		opsPerS = append(opsPerS, div(n, r.ph.wall.Seconds()))
		cpuPerOp = append(cpuPerOp, div(ms(r.ph.cpu), n))
	}
	m := map[string]metric{
		"setup_s":           {Value: median(a.setups), Unit: "s", n: len(a.setups)},
		"ops_per_s":         {Value: median(opsPerS), Unit: "ops/s"},
		"search_p50_ms":     {Value: quantile(search, 0.5), Unit: "ms", n: len(search)},
		"recall":            {Value: mean(a.recall), Unit: "fraction", n: len(a.recall)},
		"msgs_per_op":       {Value: div(float64(a.msgs), ops), Unit: "msgs"},
		"wire_bytes_per_op": {Value: div(float64(a.bytes), ops), Unit: "bytes"},
		"allocs_per_op":     {Value: div(float64(a.mallocs), ops), Unit: "allocs"},
		"cpu_ms_per_op":     {Value: median(cpuPerOp), Unit: "ms"},
		"heap_live_mb":      {Value: median(a.heaps), Unit: "MiB", n: len(a.heaps)},
	}
	for _, c := range []opClass{opDiscover, opPublish, opRetrieve, opView} {
		m[c.String()+"_p50_ms"] = metric{Value: quantile(a.lat[c], 0.5), Unit: "ms", n: len(a.lat[c])}
	}
	return m
}

// layerMetrics computes a traced run's per-layer metrics from its
// untraced pass u and traced pass t.
func layerMetrics(u, t *passResult, profile string) (map[string]metric, error) {
	shares, err := cpuShares(profile)
	if err != nil {
		return nil, err
	}
	d := t.delta
	ops := float64(t.attempted)
	errs := 0.0
	for _, n := range d.Labeled[metrics.ErrorsVecName] {
		errs += float64(n)
	}
	hits, misses := float64(d.Counter("index.cache_hits")), float64(d.Counter("index.cache_misses"))
	search := u.lat[opSearch]
	m := map[string]metric{
		"search_p99_ms":                     {Value: quantile(search, tailQuantile(len(search))), Unit: "ms", n: len(search)},
		"trace.overhead_ratio":              {Value: div(div(float64(u.attempted), u.ph.wall.Seconds()), div(ops, t.ph.wall.Seconds())), Unit: "ratio"},
		"error_ratio":                       {Value: div(float64(t.failed), ops), Unit: "fraction"},
		"warmup_ops":                        {Value: float64(t.warmup), Unit: "units"},
		"transport.errors_per_kop":          {Value: 1000 * div(errs, ops), Unit: "count"},
		"index.cache_hit_ratio":             {Value: div(hits, hits+misses), Unit: "fraction"},
		"index.docs":                        {Value: float64(d.Gauge("index.docs")), Unit: "docs"},
		"index.postings":                    {Value: float64(d.Gauge("index.postings")), Unit: "count"},
		"dht.records_expired":               {Value: float64(d.Counter("dht.records_expired")), Unit: "records"},
		"dht.records_evicted":               {Value: float64(d.Counter("dht.records_evicted")), Unit: "records"},
		"runtime.gc_cpu_fraction":           {Value: t.ph.gcCPUFraction, Unit: "fraction"},
		"runtime.gc_pause_p99_ms":           {Value: t.ph.gcPauseP99Ms, Unit: "ms"},
		"runtime.allocs_per_msg":            {Value: div(float64(t.ph.mallocs), float64(t.msgs)), Unit: "allocs"},
		"transport.msgs_per_search":         {Unit: "msgs"},
		"transport.payload_bytes_per_msg":   {Unit: "bytes"},
		"transport.frame_overhead_ratio":    {Unit: "ratio"},
		"transport.send_us_p50":             {Unit: "us"},
		"transport.send_us_p99":             {Unit: "us"},
		"transport.handler_ms_per_op":       {Unit: "ms"},
		"dsim.events_per_query":             {Unit: "events"},
		"vsearch_p50_ms":                    {Unit: "virtual_ms"},
		"dht.lookups_per_search":            {Unit: "lookups"},
		"dht.rounds_per_lookup":             {Unit: "rounds"},
		"dht.contacted_per_lookup":          {Unit: "peers"},
		"dht.store_fanout_per_publish":      {Unit: "msgs"},
		"dht.republishes_skipped_per_round": {Unit: "count"},
		"dht.refresh_ms_per_peer":           {Unit: "ms"},
		"dht.join_ms_per_peer":              {Unit: "ms"},
		"dht.search_ms_p50":                 {Unit: "ms"},
		"p2p.hit_msg_ratio":                 {Unit: "fraction"},
		"p2p.results_per_search":            {Unit: "results"},
		"index.wal_appends_per_publish":     {Unit: "appends"},
		"index.wal_bytes_per_publish":       {Unit: "bytes"},
		"http.overhead_ms_p50":              {Unit: "ms"},
		"tcp.retrieve_local_hits":           {Unit: "count"},
	}
	for _, c := range []string{"search", "discover", "retrieve", "view", "create"} {
		m["core.self_ms."+c] = metric{Unit: "ms"}
	}
	for name, v := range t.layer {
		mt, ok := m[name]
		if !ok {
			return nil, fmt.Errorf("layer metric %s has no unit", name)
		}
		mt.Value = v
		m[name] = mt
	}
	for name, v := range shares {
		m[name] = metric{Value: v, Unit: "fraction"}
	}
	return m, nil
}

// printTable prints the metrics one a line, sorted, with the sample
// count beside each percentile.
func printTable(out io.Writer, ms map[string]metric, a *aggregated) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := ms[n]
		note := ""
		if m.n > 0 {
			note = fmt.Sprintf("(n=%d)", m.n)
		}
		fmt.Fprintf(out, "  %-36s %14.4f %-10s %s\n", n, m.Value, m.Unit, note)
	}
	if _, traced := ms["search_p99_ms"]; !traced {
		s := a.lat[opSearch]
		q := tailQuantile(len(s))
		fmt.Fprintf(out, "  search tail: p%.4g %.4f ms over %d searches (per-layer metric search_p99_ms)\n", 100*q, quantile(s, q), len(s))
	}
	for i, r := range a.passes {
		fmt.Fprintf(out, "  pass %d: set-up %.3f s, %d ops in %.3f s (%.1f ops/s), cpu %.3f s\n",
			i+1, r.setup.Seconds(), r.attempted, r.ph.wall.Seconds(), div(float64(r.attempted), r.ph.wall.Seconds()), r.ph.cpu.Seconds())
	}
	fmt.Fprintf(out, "  operations: %d attempted, %d failed (error ratio %.4f); warm-up %d units; retrieves served locally %d\n",
		a.attempted, a.failed, div(float64(a.failed), float64(a.attempted)), a.warmup, a.localHits)
}

func printJSON(out io.Writer, correct bool, attempted, failed int, ms map[string]metric) {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, ms})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintln(out, string(b))
}

// createFile creates path, making its directory first.
func createFile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	return os.Create(path)
}
