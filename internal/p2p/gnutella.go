package p2p

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/p2p/codec"

	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// GnutellaNode is a peer in the distributed protocol: queries flood
// the overlay with a TTL, each peer answers from its local metadata
// index, and query hits travel back along the reverse path — the
// classic Gnutella 0.4 design the paper names.
type GnutellaNode struct {
	ep      transport.Endpoint
	store   *index.Store
	pending *PendingTable
	guids   *guidSource
	clk     dsim.Clock
	nm      *NodeMetrics
	tracer  *trace.Tracer

	mu sync.RWMutex
	// neighbors is a copy-on-write sorted slice: floods iterate it
	// directly with no per-search sort or snapshot allocation, and
	// membership changes replace the slice wholesale (they are rare —
	// overlay wiring and churn — while floods are the hot path).
	neighbors []transport.PeerID
	// seen maps query GUID -> the neighbor the query arrived from, for
	// duplicate suppression and reverse-path hit routing.
	seen map[uint64]transport.PeerID
	// collect gathers hits for queries this node originated.
	collect map[uint64]*hitCollector
	attach  AttachmentProvider
	disc    *discoveryState
	closed  bool
}

type hitCollector struct {
	mu      sync.Mutex
	results []Result
	done    chan struct{} // closed when the limit is reached
	limit   int
	closed  bool
}

func (h *hitCollector) add(rs []Result) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.results = append(h.results, rs...)
	if h.limit > 0 && len(h.results) >= h.limit && !h.closed {
		h.closed = true
		close(h.done)
	}
}

func (h *hitCollector) snapshot(limit int) []Result {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := append([]Result(nil), h.results...)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

var _ Network = (*GnutellaNode)(nil)

// NewGnutellaNode attaches a node to the overlay. Topology is supplied
// via AddNeighbor (the simulator wires it; over TCP a bootstrap list
// plays the same role).
func NewGnutellaNode(ep transport.Endpoint, store *index.Store, env Env) *GnutellaNode {
	env = env.WithDefaults()
	g := &GnutellaNode{
		ep:      ep,
		store:   store,
		pending: NewPendingTable(),
		guids:   newGUIDSource(ep.ID()),
		clk:     env.Clock,
		nm:      NewNodeMetrics(env.Metrics, "gnutella"),
		tracer:  env.Tracer,
		seen:    make(map[uint64]transport.PeerID),
		collect: make(map[uint64]*hitCollector),
	}
	ep.SetHandler(g.handle)
	return g
}

// PeerID implements Network.
func (g *GnutellaNode) PeerID() transport.PeerID { return g.ep.ID() }

// AddNeighbor links this node to a peer in the overlay (one
// direction; callers typically link both ways).
func (g *GnutellaNode) AddNeighbor(peer transport.PeerID) {
	if peer == g.ep.ID() {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.neighbors = peerSliceAdd(g.neighbors, peer)
}

// RemoveNeighbor unlinks a peer.
func (g *GnutellaNode) RemoveNeighbor(peer transport.PeerID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.neighbors = peerSliceRemove(g.neighbors, peer)
}

// Neighbors returns a copy of the current neighbor set, sorted.
func (g *GnutellaNode) Neighbors() []transport.PeerID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return slices.Clone(g.neighbors)
}

// SetAttachmentProvider implements Network.
func (g *GnutellaNode) SetAttachmentProvider(p AttachmentProvider) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attach = p
}

// Publish implements Network: in Gnutella metadata stays local; the
// object becomes discoverable because queries reach this peer.
func (g *GnutellaNode) Publish(doc *index.Document) error {
	if err := g.store.Put(doc); err != nil {
		return err
	}
	g.nm.Publishes.Inc()
	return nil
}

// PublishBatch implements Network: with no registration protocol, a
// batch is purely a local store batch (one shard lock round).
func (g *GnutellaNode) PublishBatch(docs []*index.Document) error {
	if err := g.store.PutBatch(docs); err != nil {
		return err
	}
	g.nm.Publishes.Add(int64(len(docs)))
	return nil
}

// Unpublish implements Network.
func (g *GnutellaNode) Unpublish(id index.DocID) error {
	g.store.Delete(id)
	return nil
}

// Search implements Network: flood a query with a TTL and collect
// reverse-path hits. On the synchronous simulator the entire flood
// completes before the sends return, so collection is exact; on
// asynchronous transports we wait for the timeout (or the limit).
func (g *GnutellaNode) Search(communityID string, f query.Filter, opts SearchOptions) ([]Result, error) {
	if f == nil {
		f = query.MatchAll{}
	}
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	start := g.clk.Now()
	guid := g.guids.next()
	sp := g.tracer.Start(opts.Trace, "search")
	sp.SetCommunity(communityID)
	tctx := sp.ContextOr(opts.Trace)
	col := &hitCollector{done: make(chan struct{}), limit: opts.Limit}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		g.nm.CountError(ErrClosed)
		sp.SetErr(ErrClosed)
		sp.Finish()
		return nil, ErrClosed
	}
	g.collect[guid] = col
	g.seen[guid] = g.ep.ID() // suppress loops back to the origin
	neighbors := g.neighborList()
	g.mu.Unlock()
	defer func() {
		g.mu.Lock()
		delete(g.collect, guid)
		g.mu.Unlock()
	}()

	// Answer from the local index first (a peer is also a member of
	// the network it searches).
	local := g.localResults(communityID, f, opts.Limit)
	col.add(local)

	q := queryPayload{
		GUID:        guid,
		Origin:      g.ep.ID(),
		CommunityID: communityID,
		Filter:      f.String(),
		TTL:         ttl,
		Hops:        0,
	}
	payload := codec.Encode(&q)
	for _, n := range neighbors {
		// Unreachable neighbors are skipped, like UDP loss in the
		// original protocol.
		_ = g.ep.Send(transport.Message{To: n, Type: MsgQuery, Payload: payload,
			TraceID: tctx.Trace, SpanID: tctx.Span})
		sp.AddMsgs(1, int64(len(payload)))
	}
	if g.ep.Synchronous() {
		out := col.snapshot(opts.Limit)
		g.nm.ObserveSearch(g.clk, start, len(out))
		sp.Finish()
		return out, nil
	}
	select {
	case <-col.done:
	case <-g.clk.After(timeoutOr(opts.Timeout)):
	}
	out := col.snapshot(opts.Limit)
	g.nm.ObserveSearch(g.clk, start, len(out))
	sp.Finish()
	return out, nil
}

// Retrieve implements Network: direct download from the provider, as
// Gnutella does out-of-band from the overlay.
func (g *GnutellaNode) Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error) {
	if from == g.PeerID() {
		return g.store.Get(id)
	}
	sp := g.tracer.Root("fetch")
	sp.SetPeer(string(from))
	defer sp.Finish()
	doc, err := RetrieveFrom(g.clk, g.ep, g.pending, &sp, id, from, 0)
	if err != nil {
		g.nm.CountError(err)
		return nil, err
	}
	g.nm.Fetches.Inc()
	return doc, nil
}

// RetrieveAttachment implements Network.
func (g *GnutellaNode) RetrieveAttachment(uri string, from transport.PeerID) ([]byte, error) {
	sp := g.tracer.Root("attachment")
	sp.SetPeer(string(from))
	defer sp.Finish()
	return RetrieveAttachmentFrom(g.clk, g.ep, g.pending, &sp, uri, from, 0)
}

// Close implements Network.
func (g *GnutellaNode) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	return g.ep.Close()
}

// neighborList returns the sorted copy-on-write neighbor slice
// (caller holds mu): already ordered, shared read-only — floods fan
// out deterministically with zero snapshot cost.
func (g *GnutellaNode) neighborList() []transport.PeerID {
	return g.neighbors
}

func (g *GnutellaNode) localResults(communityID string, f query.Filter, limit int) []Result {
	docs := g.store.Search(communityID, f, limit)
	out := make([]Result, 0, len(docs))
	for _, d := range docs {
		out = append(out, Result{
			DocID:       d.ID,
			Provider:    g.ep.ID(),
			CommunityID: d.CommunityID,
			Title:       d.Title,
			Attrs:       d.Attrs,
		})
	}
	return out
}

func (g *GnutellaNode) handle(msg transport.Message) {
	switch msg.Type {
	case MsgQuery:
		g.handleQuery(msg)
	case MsgQueryHit:
		g.handleQueryHit(msg)
	case MsgPing:
		g.handlePing(msg)
	case MsgPong:
		g.handlePong(msg)
	case MsgFetch:
		ServeFetch(g.tracer, g.ep, g.store, msg)
	case MsgFetchReply, MsgAttachmentReply:
		ResolveRetrievalReply(g.pending, msg)
	case MsgAttachment:
		g.mu.RLock()
		p := g.attach
		g.mu.RUnlock()
		ServeAttachment(g.tracer, g.ep, p, msg)
	}
}

func (g *GnutellaNode) handleQuery(msg transport.Message) {
	var q queryPayload
	if err := q.DecodeBinary(msg.Payload); err != nil {
		return
	}
	sp, tctx := HandlerSpan(g.tracer, g.ep, msg, "query")
	sp.SetCommunity(q.CommunityID)
	defer sp.Finish()
	g.mu.Lock()
	if _, dup := g.seen[q.GUID]; dup {
		g.mu.Unlock()
		sp.SetOp("query.dup")
		return // duplicate: already served and forwarded
	}
	g.seen[q.GUID] = msg.From
	neighbors := g.neighborList()
	g.mu.Unlock()

	f, err := query.Parse(q.Filter)
	if err != nil {
		return // malformed query: drop, per protocol robustness rules
	}
	hops := q.Hops + 1
	results := g.localResults(q.CommunityID, f, 0)
	for i := range results {
		results[i].Hops = hops
	}
	if len(results) > 0 {
		hit := codec.Encode(&queryHitPayload{GUID: q.GUID, Results: results})
		// Route the hit back toward the origin along the reverse path.
		_ = g.ep.Send(transport.Message{To: msg.From, Type: MsgQueryHit, Payload: hit,
			TraceID: tctx.Trace, SpanID: tctx.Span})
		sp.AddMsgs(1, int64(len(hit)))
	}
	// Forward the flood while TTL remains.
	if q.TTL <= 1 {
		return
	}
	fwd := q
	fwd.TTL--
	fwd.Hops = hops
	payload := codec.Encode(&fwd)
	for _, n := range neighbors {
		if n == msg.From {
			continue
		}
		_ = g.ep.Send(transport.Message{To: n, Type: MsgQuery, Payload: payload,
			TraceID: tctx.Trace, SpanID: tctx.Span})
		sp.AddMsgs(1, int64(len(payload)))
	}
}

func (g *GnutellaNode) handleQueryHit(msg transport.Message) {
	var hit queryHitPayload
	if err := hit.DecodeBinary(msg.Payload); err != nil {
		return
	}
	g.mu.RLock()
	col := g.collect[hit.GUID]
	back, seen := g.seen[hit.GUID]
	self := g.ep.ID()
	g.mu.RUnlock()
	if col != nil {
		sp, _ := HandlerSpan(g.tracer, g.ep, msg, "hit")
		sp.Finish()
		col.add(hit.Results)
		return
	}
	if !seen || back == self {
		return // unknown or stale query: drop the hit
	}
	sp, tctx := HandlerSpan(g.tracer, g.ep, msg, "hit.relay")
	// Relay one hop back along the reverse path.
	_ = g.ep.Send(transport.Message{To: back, Type: MsgQueryHit, Payload: msg.Payload,
		TraceID: tctx.Trace, SpanID: tctx.Span})
	sp.AddMsgs(1, int64(len(msg.Payload)))
	sp.Finish()
}

// String describes the node.
func (g *GnutellaNode) String() string {
	return fmt.Sprintf("gnutella(%s, %d neighbors)", g.ep.ID(), len(g.Neighbors()))
}
