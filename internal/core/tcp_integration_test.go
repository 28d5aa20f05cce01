package core_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// pollUntil polls cond every 10ms until it reports success or the
// deadline passes, returning whether it succeeded. TCP delivery is
// asynchronous, so tests wait for observable state instead of sleeping
// fixed amounts — the deadline only bounds a failure, it never slows a
// passing run.
func pollUntil(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCentralizedOverTCP runs the full U-P2P flow — create community,
// discover, join, publish, search, retrieve with attachments — over
// real TCP sockets, proving the in-memory simulator is not load-
// bearing for protocol correctness.
func TestCentralizedOverTCP(t *testing.T) {
	serverNode, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer serverNode.Close()
	p2p.NewIndexServer(serverNode, index.NewStore(), p2p.Env{})

	newPeer := func() (*core.Servent, func()) {
		node, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		st := index.NewStore()
		sv, err := core.NewServent(p2p.NewCentralizedClient(node, serverNode.ID(), st, p2p.Env{}), st)
		if err != nil {
			t.Fatal(err)
		}
		return sv, func() { _ = sv.Close() }
	}
	alice, closeAlice := newPeer()
	defer closeAlice()
	bob, closeBob := newPeer()
	defer closeBob()

	comm, err := alice.CreateCommunity(core.CommunitySpec{
		Name:      "mp3",
		Keywords:  "music",
		SchemaSrc: corpus.SongSchemaSrc,
	})
	if err != nil {
		t.Fatalf("create community: %v", err)
	}
	attURI := core.AttachmentURI("s1", "audio.mp3")
	song := corpus.Songs(1, 1).Objects[0].Doc
	docID, err := alice.Publish(comm.ID, song, map[string][]byte{attURI: []byte("AUDIO")})
	if err != nil {
		t.Fatalf("publish: %v", err)
	}

	// Registration is asynchronous over TCP: alice's register frame
	// races bob's search frame to the server, so poll until the
	// server has indexed the community (or the deadline passes).
	opts := p2p.SearchOptions{Timeout: 3 * time.Second}
	var found []p2p.Result
	pollUntil(t, 5*time.Second, func() bool {
		found, err = bob.DiscoverCommunities(query.MustParse("(keywords~=music)"), opts)
		if err != nil {
			t.Fatalf("discover over TCP: %v", err)
		}
		return len(found) > 0
	})
	if len(found) != 1 {
		t.Fatalf("found = %+v", found)
	}
	if _, err := bob.JoinFromNetwork(found[0]); err != nil {
		t.Fatalf("join over TCP: %v", err)
	}
	// The song's register frame is also asynchronous; poll as above.
	var hits []p2p.Result
	pollUntil(t, 5*time.Second, func() bool {
		hits, err = bob.Search(comm.ID, query.MatchAll{}, opts)
		if err != nil {
			t.Fatalf("search over TCP: %v", err)
		}
		return len(hits) > 0
	})
	if len(hits) != 1 {
		t.Fatalf("search hits = %+v", hits)
	}
	doc, err := bob.Retrieve(hits[0].DocID, hits[0].Provider)
	if err != nil {
		t.Fatalf("retrieve over TCP: %v", err)
	}
	if doc.ID != docID {
		t.Errorf("doc = %s, want %s", doc.ID, docID)
	}
	data, ok := bob.Attachment(attURI)
	if !ok || string(data) != "AUDIO" {
		t.Errorf("attachment = %q, %v", data, ok)
	}
}

// TestGnutellaOverTCP floods queries across a 3-node TCP overlay.
func TestGnutellaOverTCP(t *testing.T) {
	type peer struct {
		sv   *core.Servent
		node *p2p.GnutellaNode
	}
	var peers []peer
	for i := 0; i < 3; i++ {
		tn, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		st := index.NewStore()
		node := p2p.NewGnutellaNode(tn, st, p2p.Env{})
		sv, err := core.NewServent(node, st)
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, peer{sv, node})
		defer sv.Close()
	}
	// Line topology: 0 - 1 - 2.
	peers[0].node.AddNeighbor(peers[1].node.PeerID())
	peers[1].node.AddNeighbor(peers[0].node.PeerID())
	peers[1].node.AddNeighbor(peers[2].node.PeerID())
	peers[2].node.AddNeighbor(peers[1].node.PeerID())

	comm, err := peers[2].sv.CreateCommunity(core.CommunitySpec{
		Name:      "patterns",
		SchemaSrc: corpus.PatternSchemaSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := corpus.DesignPatterns(1, 1).Objects[0].Doc
	if _, err := peers[2].sv.Publish(comm.ID, obj, nil); err != nil {
		t.Fatal(err)
	}

	// Limit 1 lets the hit collector close as soon as the single
	// expected hit arrives instead of waiting out the full timeout;
	// polling with per-attempt timeouts absorbs slow TCP dial/accept
	// on loaded CI machines.
	opts := p2p.SearchOptions{TTL: 4, Timeout: time.Second, Limit: 1}
	var found []p2p.Result
	pollUntil(t, 10*time.Second, func() bool {
		var err error
		found, err = peers[0].sv.DiscoverCommunities(query.MustParse("(name=patterns)"), opts)
		if err != nil {
			t.Fatalf("flood discover over TCP: %v", err)
		}
		return len(found) > 0
	})
	if len(found) != 1 {
		t.Fatalf("found = %+v", found)
	}
	if found[0].Hops != 2 {
		t.Errorf("hops = %d, want 2 (line topology)", found[0].Hops)
	}
	if _, err := peers[0].sv.JoinFromNetwork(found[0]); err != nil {
		t.Fatalf("join over TCP flood: %v", err)
	}
	var hits []p2p.Result
	pollUntil(t, 10*time.Second, func() bool {
		var err error
		hits, err = peers[0].sv.Search(comm.ID, query.MustParse("(name=*)"), opts)
		if err != nil {
			t.Fatalf("flood search over TCP: %v", err)
		}
		return len(hits) > 0
	})
	if len(hits) != 1 {
		t.Fatalf("search hits = %+v", hits)
	}
}

// TestDHTOverTCP runs discovery, join, publish, search, and retrieval
// through the Kademlia overlay on real TCP sockets: iterative lookups
// genuinely await their RPCs here instead of riding the synchronous
// simulator's fast path.
func TestDHTOverTCP(t *testing.T) {
	var (
		svs   []*core.Servent
		nodes []*dht.Node
	)
	for i := 0; i < 4; i++ {
		tn, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		st := index.NewStore()
		node := dht.NewNode(tn, st, dht.Config{K: 4, Alpha: 2})
		sv, err := core.NewServent(node, st)
		if err != nil {
			t.Fatal(err)
		}
		svs = append(svs, sv)
		nodes = append(nodes, node)
		defer sv.Close()
	}
	// Everyone joins off node 0; over TCP the join lookups need the
	// listeners up, which they already are.
	for i := 1; i < len(nodes); i++ {
		nodes[i].Bootstrap(nodes[0].PeerID())
	}

	comm, err := svs[1].CreateCommunity(core.CommunitySpec{
		Name:      "patterns",
		SchemaSrc: corpus.PatternSchemaSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := corpus.DesignPatterns(1, 1).Objects[0].Doc
	if _, err := svs[1].Publish(comm.ID, obj, nil); err != nil {
		t.Fatal(err)
	}

	opts := p2p.SearchOptions{Timeout: 2 * time.Second}
	var found []p2p.Result
	pollUntil(t, 10*time.Second, func() bool {
		found, err = svs[3].DiscoverCommunities(query.MustParse("(name=patterns)"), opts)
		if err != nil {
			t.Fatalf("dht discover over TCP: %v", err)
		}
		return len(found) > 0
	})
	if len(found) == 0 {
		t.Fatal("community not discovered through the DHT")
	}
	if _, err := svs[3].JoinFromNetwork(found[0]); err != nil {
		t.Fatalf("join over TCP dht: %v", err)
	}
	var hits []p2p.Result
	pollUntil(t, 10*time.Second, func() bool {
		hits, err = svs[3].Search(comm.ID, query.MatchAll{}, opts)
		if err != nil {
			t.Fatalf("dht search over TCP: %v", err)
		}
		return len(hits) > 0
	})
	if len(hits) != 1 {
		t.Fatalf("search hits = %+v", hits)
	}
	if _, err := svs[3].Retrieve(hits[0].DocID, hits[0].Provider); err != nil {
		t.Fatalf("retrieve over TCP dht: %v", err)
	}
}
