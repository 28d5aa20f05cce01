package sim

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/p2p"
	"repro/internal/query"
)

// goldenConfig is a small but fully loaded scenario: churn, loss,
// latency jitter, a flash crowd, and (for FastTrack) super-peer
// failover — every nondeterminism hazard at once.
func goldenConfig(proto Protocol, seed int64) ScenarioConfig {
	cfg := ScenarioConfig{
		Cluster: Config{
			Peers:    40,
			Protocol: proto,
			Degree:   4,
			Seed:     seed,
			DropRate: 0.02,
			Latency:  25 * time.Millisecond,
			Jitter:   15 * time.Millisecond,
		},
		Duration:       30 * time.Second,
		QueryRate:      3,
		ArrivalRate:    0.3,
		DepartureRate:  0.3,
		InitialObjects: 50,
		BurstAt:        12 * time.Second,
		BurstQueries:   10,
	}
	if proto == FastTrack {
		cfg.Cluster.SuperPeers = 5
		cfg.FailSupersAt = 15 * time.Second
		cfg.FailSupers = 1
		cfg.RehomeDelay = 3 * time.Second
	}
	if proto == DHT {
		// Small k plus a TTL shorter than the run forces every DHT
		// mechanism through the trace: replication, record expiry,
		// scheduled refresh/republish, and liveness-driven eviction.
		cfg.Cluster.DHTK = 8
		cfg.Cluster.DHTRecordTTL = 20 * time.Second
		cfg.DHTRefreshEvery = 7 * time.Second
	}
	return cfg
}

// TestGoldenTraceDeterminism: the same seed must reproduce the exact
// message trace — byte-for-byte, including loss decisions — on every
// protocol. CI runs this with -count=2, which additionally catches
// process-global state leaking between runs (e.g. a shared GUID
// counter would shift every query payload on the second run).
func TestGoldenTraceDeterminism(t *testing.T) {
	for _, proto := range []Protocol{Centralized, Gnutella, FastTrack, DHT} {
		t.Run(proto.String(), func(t *testing.T) {
			r1, err := RunScenario(goldenConfig(proto, 42))
			if err != nil {
				t.Fatal(err)
			}
			r2, err := RunScenario(goldenConfig(proto, 42))
			if err != nil {
				t.Fatal(err)
			}
			if r1.TraceLen == 0 {
				t.Fatal("empty trace")
			}
			if r1.TraceLen != r2.TraceLen {
				t.Fatalf("trace lengths differ: %d vs %d", r1.TraceLen, r2.TraceLen)
			}
			if r1.TraceHash != r2.TraceHash {
				t.Fatalf("trace hashes differ: %x vs %x", r1.TraceHash, r2.TraceHash)
			}
			if r1.Queries != r2.Queries || r1.Arrivals != r2.Arrivals || r1.Departures != r2.Departures {
				t.Fatalf("workload differs: %+v vs %+v", r1, r2)
			}
			for i := range r1.Samples {
				a, b := r1.Samples[i], r2.Samples[i]
				if a != b {
					t.Fatalf("sample %d differs: %+v vs %+v", i, a, b)
				}
			}
			// A different seed must explore a different trajectory (equal
			// 64-bit hashes across all three protocols would be a broken
			// seed plumbing, not a coincidence).
			r3, err := RunScenario(goldenConfig(proto, 43))
			if err != nil {
				t.Fatal(err)
			}
			if r3.TraceHash == r1.TraceHash {
				t.Errorf("seed change did not change the trace")
			}
		})
	}
}

// TestGoldenTraceSingleClusterDeterminism pins determinism at the
// cluster level too (no scenario driver): discovery floods, batched
// publication, and searches hash identically across runs.
func TestGoldenTraceSingleClusterDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		c, err := NewCluster(Config{Peers: 16, Protocol: Gnutella, Degree: 4, Seed: 3, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		comm, err := c.SeedCommunity(0, spec())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.DiscoverAndJoinAll("patterns", 7); err != nil {
			t.Fatal(err)
		}
		if _, err := c.PublishRoundRobin(comm.ID, corpus.DesignPatterns(20, 3).Objects); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if _, err := c.SearchFrom(i, comm.ID, query.MustParse("(name=*)"), p2p.SearchOptions{TTL: 7}); err != nil {
				t.Fatal(err)
			}
		}
		return c.Net.TraceHash(), c.Net.TraceLen()
	}
	h1, n1 := run()
	h2, n2 := run()
	if n1 == 0 || n1 != n2 || h1 != h2 {
		t.Errorf("cluster trace not reproducible: (%x,%d) vs (%x,%d)", h1, n1, h2, n2)
	}
}

// TestGoldenTraceHashesPinned pins the golden scenario's trace to
// recorded values, so a refactor that must leave the wire unchanged is
// checked against the last known trace and not only run against
// itself. A change that alters the wire on purpose updates these
// values and records the old and new ones with the change.
func TestGoldenTraceHashesPinned(t *testing.T) {
	pins := []struct {
		proto Protocol
		seed  int64
		hash  uint64
		len   uint64
	}{
		{Centralized, 42, 0x3d4a7ee512016ca6, 250},
		{Centralized, 43, 0xdc14984acde40262, 247},
		{Gnutella, 42, 0x3886a441b42f6bf5, 16687},
		{Gnutella, 43, 0xf4ca208de9af3304, 16089},
		{FastTrack, 42, 0xc2b967d7884dcf4d, 2081},
		{FastTrack, 43, 0x7541be93bbaacb70, 2338},
		{DHT, 42, 0xa0c647e0d6d547e7, 20780},
		{DHT, 43, 0x60438cf14f6e3317, 21696},
	}
	for _, p := range pins {
		t.Run(fmt.Sprintf("%s/%d", p.proto, p.seed), func(t *testing.T) {
			r, err := RunScenario(goldenConfig(p.proto, p.seed))
			if err != nil {
				t.Fatal(err)
			}
			if r.TraceHash != p.hash || r.TraceLen != p.len {
				t.Fatalf("trace = %016x/%d, pinned %016x/%d", r.TraceHash, r.TraceLen, p.hash, p.len)
			}
		})
	}
}
