package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestTinyRuns runs every workload at the self-test size, untraced and
// traced, and checks that the correctness gate passes and that exactly
// the metrics BENCHMARK.json names are printed, each with its unit.
func TestTinyRuns(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command knows %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			ok, err := run(options{workload: w.Name, seed: 7, seconds: 2, trace: trace, tiny: true, out: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !ok {
				t.Fatalf("%s trace=%v: gate failed:\n%s", w.Name, trace, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%v: last line is not the report: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value == 0:
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, m.Name)
				}
			}
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 100ms, 100% of 100ms total
      flat  flat%   sum%        cum   cum%
      40ms 40.00% 40.00%       50ms 50.00%  repro/internal/dht.(*Node).handle
      30ms 30.00% 70.00%       30ms 30.00%  runtime.mallocgc
      20ms 20.00% 90.00%       20ms 20.00%  encoding/json.(*decodeState).object
      10ms 10.00%   100%       10ms 10.00%  sort.insertionSort (inline)
`)
	got, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.dht": 40, "cpu.malloc": 30, "cpu.json_envelope": 20, "cpu.other": 10}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v ms, want %v", name, got[name], v)
		}
	}
	if len(got) != len(cpuBucketNames()) {
		t.Errorf("%d buckets reported, want every bucket (%d)", len(got), len(cpuBucketNames()))
	}
}

// TestLoadgenSamplesStayOutOfLayers checks that the clients' own
// net/http and socket work, which the profile labels as the load
// generator's, counts as cpu.loadgen and not as the servent's.
func TestLoadgenSamplesStayOutOfLayers(t *testing.T) {
	program := []byte(`Type: cpu
Active filters:
   tagignore=role=loadgen
Showing nodes accounting for 60ms, 60% of 100ms total
      flat  flat%   sum%        cum   cum%
      30ms 30.00% 30.00%       40ms 40.00%  net/http.(*conn).serve
      20ms 20.00% 50.00%       20ms 20.00%  repro/internal/xslt.(*Processor).Apply
      10ms 10.00% 60.00%       10ms 10.00%  main.(*tracedHandler).ServeHTTP
`)
	loadgen := []byte(`Type: cpu
Active filters:
   tagfocus=role=loadgen
Showing nodes accounting for 40ms, 40% of 100ms total
      flat  flat%   sum%        cum   cum%
      25ms 25.00% 25.00%       30ms 30.00%  net/http.(*persistConn).readLoop
      10ms 10.00% 35.00%       10ms 10.00%  syscall.Syscall
       5ms  5.00% 40.00%        5ms  5.00%  regexp.(*Regexp).FindAllSubmatch
`)
	got, err := combineShares(program, loadgen)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.servent_http": 0.3, "cpu.xml": 0.2, "cpu.loadgen": 0.5, "cpu.syscall": 0, "cpu.other": 0}
	for name, v := range want {
		if math.Abs(got[name]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	empty := []byte("TagFocus expression matched no samples\nType: cpu\nShowing nodes accounting for 0, 0% of 100ms total\n      flat  flat%   sum%        cum   cum%\n")
	got, err = combineShares(program, empty)
	if err != nil {
		t.Fatal(err)
	}
	if got["cpu.loadgen"] != 1.0/6 || got["cpu.servent_http"] != 0.5 {
		t.Errorf("with no load generator samples: loadgen %v, servent_http %v", got["cpu.loadgen"], got["cpu.servent_http"])
	}
}
