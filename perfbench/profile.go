package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuBuckets groups profile self time by layer. The first rule whose
// prefix matches a function name wins, so more specific packages come
// before the packages that contain them.
var cpuBuckets = []struct {
	name     string
	prefixes []string
}{
	{"cpu.codec", []string{"repro/internal/p2p/codec."}},
	{"cpu.json_envelope", []string{"encoding/json.", "encoding/base64."}},
	{"cpu.dsim", []string{"repro/internal/dsim."}},
	{"cpu.dht", []string{"repro/internal/dht."}},
	{"cpu.p2p", []string{"repro/internal/p2p."}},
	{"cpu.index", []string{"repro/internal/index."}},
	{"cpu.query", []string{"repro/internal/query."}},
	{"cpu.xml", []string{"repro/internal/xsd.", "repro/internal/xslt.", "repro/internal/xpath.",
		"repro/internal/xmldoc.", "repro/internal/stylegen.", "repro/internal/schemagen.", "encoding/xml."}},
	{"cpu.core", []string{"repro/internal/core."}},
	{"cpu.servent_http", []string{"repro/internal/servent.", "net/http.", "net/textproto.", "net/url.", "html."}},
	{"cpu.transport", []string{"repro/internal/transport."}},
	{"cpu.sim", []string{"repro/internal/sim."}},
	{"cpu.metrics", []string{"repro/internal/metrics.", "runtime/metrics."}},
	{"cpu.trace", []string{"repro/internal/trace."}},
	// Unlabelled benchmark code: the traced run's layer wrappers.
	{"cpu.loadgen", []string{"main."}},
	{"cpu.syscall", []string{"syscall.", "internal/poll.", "internal/runtime/syscall.", "runtime.futex",
		"runtime.netpoll", "runtime.epollwait", "runtime.write1", "runtime.read", "runtime.usleep",
		"runtime.nanotime", "runtime.walltime", "os.", "net."}},
	{"cpu.gc", []string{"runtime.gc", "runtime.scanobject", "runtime.greyobject", "runtime.markroot",
		"runtime.findObject", "runtime.scanblock", "runtime.scanstack", "runtime.scanframe",
		"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.wbBuf", "runtime.bulkBarrier",
		"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep", "runtime.(*sweepLocked)",
		"runtime.spanOf", "runtime.pageIndexOf", "runtime.(*mspan).typePointers", "runtime.typePointers",
		"runtime.(*markBits)", "runtime.markBits", "runtime.wbMove", "runtime.typeBitsBulkBarrier",
		"runtime.(*gcControllerState)", "runtime.(*mheap).freeSpan", "runtime.(*unwinder)", "runtime.funcInfo",
		"runtime.pcvalue", "runtime.findfunc", "runtime.step", "runtime.readvarint", "runtime.heapBitsSmallForAddr"}},
	{"cpu.malloc", []string{"runtime.mallocgc", "runtime.newobject", "runtime.makeslice", "runtime.growslice",
		"runtime.makemap", "runtime.newarray", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
		"runtime.nextFreeFast", "runtime.(*mspan).nextFreeIndex", "runtime.heapSetType", "runtime.memclrNoHeapPointers",
		"runtime.(*pageAlloc)", "runtime.deductAssistCredit", "runtime.rawstring", "runtime.rawbyteslice",
		"runtime.rawruneslice", "runtime.concatstring", "runtime.slicebytetostring", "runtime.stringtoslicebyte",
		"runtime.publicationBarrier", "runtime.(*mspan).init", "runtime.(*fixalloc)", "runtime.nextFree",
		"runtime.(*mspan).refillAllocCache", "runtime.writeHeapBitsSmall", "runtime.roundupsize", "runtime.divRoundUp"}},
	{"cpu.runtime_other", []string{"runtime.", "internal/runtime/", "internal/abi.", "internal/bytealg."}},
}

// cpuBucketNames lists every bucket cpuShares reports, plus the
// catch-all for everything else (the rest of the standard library).
func cpuBucketNames() []string {
	names := make([]string, 0, len(cpuBuckets)+1)
	for _, b := range cpuBuckets {
		names = append(names, b.name)
	}
	return append(names, "cpu.other")
}

func bucketOf(fn string) string {
	if !strings.Contains(fn, ".") {
		return "cpu.runtime_other" // assembly helpers such as memeqbody
	}
	for _, b := range cpuBuckets {
		for _, p := range b.prefixes {
			if strings.HasPrefix(fn, p) {
				return b.name
			}
		}
	}
	return "cpu.other"
}

// loadgenCtx carries the profiler label of the benchmark's own work:
// the tcp-mix clients (and the HTTP transport goroutines they start)
// and the sims' driver events. The traced run's CPU profile counts
// samples under it as cpu.loadgen, whatever package they are in.
var loadgenCtx = pprof.WithLabels(context.Background(), pprof.Labels("role", "loadgen"))

// sut runs fn, a call from driver code into the program under test,
// without the load generator's label.
func sut(fn func()) {
	pprof.SetGoroutineLabels(context.Background())
	defer pprof.SetGoroutineLabels(loadgenCtx)
	fn()
}

// cpuShares aggregates a CPU profile's self time into the layer
// buckets with `go tool pprof -top`, which ships with the toolchain.
// Samples labelled as the load generator's all count as cpu.loadgen;
// the rest are bucketed by function. Each share is that bucket's
// fraction of all sampled CPU.
func cpuShares(profile string) (map[string]float64, error) {
	program, err := pprofTop(profile, "-tagignore=role=loadgen")
	if err != nil {
		return nil, err
	}
	loadgen, err := pprofTop(profile, "-tagfocus=role=loadgen")
	if err != nil {
		return nil, err
	}
	return combineShares(program, loadgen)
}

func pprofTop(profile, tagFilter string) ([]byte, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-unit=ms",
		tagFilter, profile).CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w: %s", tagFilter, err, out)
	}
	return out, nil
}

// combineShares turns the `pprof -top` tables of the program's
// samples and of the load generator's into shares of all samples.
func combineShares(program, loadgen []byte) (map[string]float64, error) {
	ms, err := parsePprofTop(program)
	if err != nil {
		return nil, err
	}
	lg, err := parsePprofTop(loadgen)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range lg {
		ms["cpu.loadgen"] += v
	}
	for _, v := range ms {
		total += v
	}
	for k, v := range ms {
		ms[k] = div(v, total)
	}
	return ms, nil
}

// parsePprofTop reads `pprof -top -unit=ms` output, where after the
// header line each row is "flat flat% sum% cum cum% function", and
// returns the flat milliseconds of each bucket. A table with no rows,
// which pprof prints when a tag filter matches no sample, reads as
// zero everywhere.
func parsePprofTop(out []byte) (map[string]float64, error) {
	ms := make(map[string]float64)
	for _, name := range cpuBucketNames() {
		ms[name] = 0
	}
	inRows := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if !inRows {
			inRows = len(fields) >= 5 && fields[0] == "flat" && fields[1] == "flat%"
			continue
		}
		if len(fields) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(fields[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		ms[bucketOf(fields[5])] += flat
	}
	if !inRows && !bytes.Contains(out, []byte("Type: cpu")) {
		return nil, fmt.Errorf("pprof output has no table: %.200s", out)
	}
	return ms, nil
}
