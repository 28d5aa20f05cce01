// Command up2pbench runs the experiment suite of EXPERIMENTS.md and
// prints every table/figure reproduction (F1–F3, E1–E16, E18).
//
//	up2pbench                          # run everything
//	up2pbench -run E3                  # one experiment
//	up2pbench -run E10 -scn-peers 200  # scenario experiment, reduced scale
//	up2pbench -run E13 -dht-k 8        # DHT comparison, smaller replication
//	up2pbench -run E16 -e16-burst 100  # flash crowd, reduced burst
//	up2pbench -run E18 -wal-docs 50    # WAL durability cost, reduced scale
//	up2pbench -list                    # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "up2pbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		only = flag.String("run", "", "run a single experiment by ID (F1..F3, E1..E16, E18)")
		list = flag.Bool("list", false, "list experiments and exit")
		// E9 (store scalability) workload knobs.
		storeWorkers = flag.Int("store-workers", bench.StoreBenchConfig.Workers,
			"E9: concurrent store clients")
		storeShards = flag.Int("store-shards", bench.StoreBenchConfig.Shards,
			"E9: shard count of the sharded store configurations")
		storeComms = flag.Int("store-communities", bench.StoreBenchConfig.Communities,
			"E9: number of seeded communities")
		storeDocs = flag.Int("store-docs", bench.StoreBenchConfig.DocsPerCommunity,
			"E9: documents per community")
		storeOps = flag.Int("store-ops", bench.StoreBenchConfig.OpsPerWorker,
			"E9: operations per client")
		// E10–E12 (discrete-event scenario) workload knobs.
		scnPeers = flag.Int("scn-peers", bench.ScenarioBenchConfig.Peers,
			"E10-E12: scenario population")
		scnQueries = flag.Int("scn-queries", bench.ScenarioBenchConfig.Queries,
			"E10-E12: queries per scenario run")
		scnSeed = flag.Int64("scn-seed", bench.ScenarioBenchConfig.Seed,
			"E10-E16: scenario seed (same seed -> identical trace)")
		// E13–E15 (DHT comparison) knobs.
		dhtK = flag.Int("dht-k", bench.DHTBenchConfig.K,
			"E13-E15: DHT bucket capacity / replication factor")
		dhtAlpha = flag.Int("dht-alpha", bench.DHTBenchConfig.Alpha,
			"E13-E15: DHT lookup parallelism")
		e13Peers = flag.Int("e13-max-peers", bench.DHTBenchConfig.E13MaxPeers,
			"E13: cap on the population ladder")
		// E16 (flash-crowd hot key) knobs.
		e16Peers = flag.Int("e16-peers", bench.HotspotBenchConfig.Peers,
			"E16: DHT population under the flash crowd")
		e16Burst = flag.Int("e16-burst", bench.HotspotBenchConfig.Burst,
			"E16: queries in the flash-crowd burst")
		e16Split = flag.Int("e16-split-threshold", bench.HotspotBenchConfig.SplitThreshold,
			"E16: per-holder record count that triggers hot-key splitting")
		// E18 (WAL durability) knobs.
		walDocs = flag.Int("wal-docs", bench.WALBenchConfig.DocsPerCommunity,
			"E18: documents per community in the ingest workloads")
		walBatches = flag.String("wal-recovery-batches", "",
			"E18: comma-separated log lengths (in batches) for the recovery curve")
	)
	flag.Parse()
	bench.StoreBenchConfig.Workers = *storeWorkers
	bench.StoreBenchConfig.Shards = *storeShards
	bench.StoreBenchConfig.Communities = *storeComms
	bench.StoreBenchConfig.DocsPerCommunity = *storeDocs
	bench.StoreBenchConfig.OpsPerWorker = *storeOps
	bench.ScenarioBenchConfig.Peers = *scnPeers
	bench.ScenarioBenchConfig.Queries = *scnQueries
	bench.ScenarioBenchConfig.Seed = *scnSeed
	bench.DHTBenchConfig.K = *dhtK
	bench.DHTBenchConfig.Alpha = *dhtAlpha
	bench.DHTBenchConfig.E13MaxPeers = *e13Peers
	bench.HotspotBenchConfig.Peers = *e16Peers
	bench.HotspotBenchConfig.Burst = *e16Burst
	bench.HotspotBenchConfig.SplitThreshold = *e16Split
	bench.WALBenchConfig.DocsPerCommunity = *walDocs
	if *walBatches != "" {
		var lens []int
		for _, s := range strings.Split(*walBatches, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n <= 0 {
				return fmt.Errorf("-wal-recovery-batches: bad length %q", s)
			}
			lens = append(lens, n)
		}
		bench.WALBenchConfig.RecoveryBatches = lens
	}

	if *list {
		for _, r := range bench.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Name)
		}
		return nil
	}
	runners := bench.All()
	if *only != "" {
		r, ok := bench.ByID(*only)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", *only)
		}
		runners = []bench.Runner{r}
	}
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run()
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Println(tbl.Format())
		fmt.Printf("(%s completed in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
