package p2p

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/transport"
)

func TestDiscoverFindsPeersBeyondNeighbors(t *testing.T) {
	// Line: g0 - g1 - g2 - g3. g0 knows only g1.
	f := newGnutellaLine(t, 4)
	if got := len(f.nodes[0].Neighbors()); got != 1 {
		t.Fatalf("initial neighbors = %d", got)
	}
	added := f.nodes[0].Discover(3)
	// TTL 3 reaches g1 (pong), g2 (pong), g3 (pong): g2 and g3 are new.
	if len(added) != 2 {
		t.Fatalf("discovered = %v", added)
	}
	if got := len(f.nodes[0].Neighbors()); got != 3 {
		t.Errorf("neighbors after discover = %d, want 3", got)
	}
	// The new links are live: a TTL-1 search now reaches g3 directly.
	f.nodes[3].Publish(doc("far", "c", "Far", map[string]string{"k": "v"}))
	rs, err := f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Errorf("search over discovered link = %+v", rs)
	}
}

func TestDiscoverRespectsMaxNeighbors(t *testing.T) {
	// A star of 12 nodes around a hub; an outsider connected to the hub
	// discovers them all but links only up to MaxNeighbors.
	net := transport.NewMemNetwork()
	hubEP, err := net.Endpoint("hub")
	if err != nil {
		t.Fatal(err)
	}
	hub := NewGnutellaNode(hubEP, index.NewStore(), Env{})
	for i := 0; i < 12; i++ {
		ep, err := net.Endpoint(transport.PeerID(fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		n := NewGnutellaNode(ep, index.NewStore(), Env{})
		n.AddNeighbor(hub.PeerID())
		hub.AddNeighbor(n.PeerID())
	}
	outEP, err := net.Endpoint("outsider")
	if err != nil {
		t.Fatal(err)
	}
	outsider := NewGnutellaNode(outEP, index.NewStore(), Env{})
	outsider.AddNeighbor(hub.PeerID())
	hub.AddNeighbor(outsider.PeerID())

	outsider.Discover(2)
	if got := len(outsider.Neighbors()); got > MaxNeighbors {
		t.Errorf("neighbors = %d, exceeds cap %d", got, MaxNeighbors)
	}
	if got := len(outsider.Neighbors()); got <= 1 {
		t.Errorf("discovery added nothing: %d", got)
	}
}

func TestDiscoverIdempotentAndClosed(t *testing.T) {
	f := newGnutellaLine(t, 3)
	f.nodes[0].Discover(3)
	before := len(f.nodes[0].Neighbors())
	// Second discovery: everyone already known.
	added := f.nodes[0].Discover(3)
	if len(added) != 0 {
		t.Errorf("rediscovered = %v", added)
	}
	if got := len(f.nodes[0].Neighbors()); got != before {
		t.Errorf("neighbors changed: %d -> %d", before, got)
	}
	f.nodes[0].Close()
	if got := f.nodes[0].Discover(3); got != nil {
		t.Errorf("closed node discovered %v", got)
	}
}

func TestPingPongDoesNotDisturbSearch(t *testing.T) {
	f := newGnutellaLine(t, 4)
	f.nodes[2].Publish(doc("d", "c", "T", map[string]string{"k": "v"}))
	f.nodes[0].Discover(2)
	rs, err := f.nodes[0].Search("c", query.MustParse("(k=v)"), SearchOptions{TTL: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 {
		t.Errorf("search after discovery = %+v", rs)
	}
}
