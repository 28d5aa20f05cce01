// Package p2p implements U-P2P's protocol-independent network layer.
//
// The paper deliberately refuses to fix a network architecture: "U-P2P
// does not focus on the underlying network architecture or
// discriminate between centralized or distributed approaches" (§IV.B),
// and its future-work section proposes "a generic interface with
// primitives for create, search and retrieve" (§VI). Network is that
// interface. Three real implementations are provided, matching the
// full protocol enumeration of the community schema (Fig. 3):
//
//   - Centralized: a Napster-style index server; peers register
//     metadata centrally, search costs O(1) messages, retrieval is
//     peer-to-peer.
//   - Gnutella: fully distributed TTL-bounded query flooding with
//     reverse-path query-hit routing and Ping/Pong neighbor
//     discovery; metadata stays on the publishing peer.
//   - FastTrack: super-peer hybrid; leaves register with a super-peer
//     and queries flood only the super-peer overlay.
//
// All run over any transport.Endpoint, so the same protocol code
// serves the in-memory simulator and real TCP.
package p2p

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsim"
	"repro/internal/errs"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Message types on the wire.
const (
	// Centralized protocol.
	MsgRegister = "register"
	// MsgRegisterBatch registers many documents in one frame: the wire
	// half of the store's batched ingest path.
	MsgRegisterBatch = "register-batch"
	MsgUnregister    = "unregister"
	MsgSearch        = "search"
	MsgSearchHit     = "search-hit"
	// Gnutella protocol.
	MsgQuery    = "query"
	MsgQueryHit = "query-hit"
	// Shared retrieval protocol (§IV.C.2: download from the providing
	// peer, including attachments).
	MsgFetch           = "fetch"
	MsgFetchReply      = "fetch-reply"
	MsgAttachment      = "attachment"
	MsgAttachmentReply = "attachment-reply"
)

// Result is one search hit: the full metadata of a matching object
// plus its provider, per §IV.C.2 ("Results ... will consist of full
// meta-data for each search result").
type Result struct {
	DocID       index.DocID      `json:"docId"`
	Provider    transport.PeerID `json:"provider"`
	CommunityID string           `json:"communityId"`
	Title       string           `json:"title"`
	Attrs       query.Attrs      `json:"attrs"`
	Hops        int              `json:"hops"`
}

// SearchOptions tune one search call.
type SearchOptions struct {
	// Limit caps the number of results (0 = unlimited).
	Limit int
	// TTL bounds flooding depth (Gnutella only; 0 uses DefaultTTL).
	TTL int
	// Timeout bounds result collection on asynchronous transports
	// (0 uses DefaultTimeout). Ignored on the synchronous simulator.
	Timeout time.Duration
	// Trace is the caller's trace context; when valid (the query was
	// sampled upstream), the search records a child span and stamps it
	// on every wire message the search fans out.
	Trace trace.Context
}

// Defaults for SearchOptions.
const (
	DefaultTTL     = 7
	DefaultTimeout = 2 * time.Second
)

// Env is what a protocol node takes from its host at construction and
// keeps for its lifetime: the clock that paces its timeouts, the
// registry its telemetry records into, and its span recorder. The zero
// value means wall clock, metrics discarded and tracing off.
type Env struct {
	Clock   dsim.Clock
	Metrics *metrics.Registry
	Tracer  *trace.Tracer
}

// WithDefaults returns e with its nil clock and registry replaced by
// the wall clock and the discard registry (a nil tracer already means
// tracing off).
func (e Env) WithDefaults() Env {
	if e.Clock == nil {
		e.Clock = dsim.Wall
	}
	if e.Metrics == nil {
		e.Metrics = metrics.Discard()
	}
	return e
}

// AttachmentProvider resolves a local attachment URI to its bytes.
// The servent installs one so peers can download flagged attachments.
type AttachmentProvider func(uri string) ([]byte, bool)

// Network is the generic peer-to-peer interface: create (Publish),
// search, and retrieve.
type Network interface {
	// PeerID returns this node's network identity.
	PeerID() transport.PeerID
	// Publish makes a document discoverable on the network.
	Publish(doc *index.Document) error
	// PublishBatch makes many documents discoverable at once. It is
	// semantically a loop over Publish, but implementations amortize:
	// one store batch locally and (where a registration protocol
	// exists) one register-batch message instead of one per document.
	PublishBatch(docs []*index.Document) error
	// Unpublish withdraws a document.
	Unpublish(id index.DocID) error
	// Search finds matching documents within a community.
	Search(communityID string, f query.Filter, opts SearchOptions) ([]Result, error)
	// Retrieve downloads the full document from a providing peer.
	Retrieve(id index.DocID, from transport.PeerID) (*index.Document, error)
	// RetrieveAttachment downloads one attachment from a peer.
	RetrieveAttachment(uri string, from transport.PeerID) ([]byte, error)
	// SetAttachmentProvider installs the resolver for local attachments.
	SetAttachmentProvider(p AttachmentProvider)
	// Close detaches from the network.
	Close() error
}

// Common errors, carrying structured codes ("p2p.<name>") for the
// metrics registry's error counter family. Identity semantics are
// unchanged: errors.Is against the sentinels still holds through
// fmt.Errorf("%w: ...") wrapping.
var (
	ErrTimeout     error = errs.New("p2p.timeout", "p2p: timed out awaiting response")
	ErrNotProvided error = errs.New("p2p.not_provided", "p2p: peer does not provide the requested item")
	ErrClosed      error = errs.New("p2p.closed", "p2p: node closed")
)

// --- wire payloads ---

type searchPayload struct {
	ReqID       uint64
	CommunityID string
	Filter      string
	Limit       int
}

type searchHitPayload struct {
	ReqID   uint64
	Results []Result
}

type registerPayload struct {
	DocID       index.DocID
	CommunityID string
	Title       string
	Attrs       query.Attrs
}

type registerBatchPayload struct {
	Docs []registerPayload
}

// registerPayloadFor extracts the registered metadata of a document.
func registerPayloadFor(doc *index.Document) registerPayload {
	return registerPayload{
		DocID:       doc.ID,
		CommunityID: doc.CommunityID,
		Title:       doc.Title,
		Attrs:       doc.Attrs,
	}
}

// registerBatchChunk bounds documents per register-batch frame so a
// large batch cannot exceed the transport's frame limit.
const registerBatchChunk = 512

type unregisterPayload struct {
	DocID index.DocID
}

type queryPayload struct {
	GUID        uint64
	Origin      transport.PeerID
	CommunityID string
	Filter      string
	TTL         int
	Hops        int
}

type queryHitPayload struct {
	GUID    uint64
	Results []Result
}

type fetchPayload struct {
	ReqID uint64
	DocID index.DocID
}

type fetchReplyPayload struct {
	ReqID uint64
	Found bool
	Doc   *index.Document
}

type attachmentPayload struct {
	ReqID uint64
	URI   string
}

type attachmentReplyPayload struct {
	ReqID uint64
	Found bool
	Data  []byte
}

// --- request/response correlation ---

// PendingTable matches responses to outstanding requests by ID. It is
// exported (with Await) so additional protocol implementations — the
// DHT overlay in internal/dht — reuse the same correlation layer
// instead of reimplementing it. Request IDs count locally per table,
// which keeps them deterministic per node per run (a requirement of
// golden-trace reproducibility, like the per-node GUID sources).
//
// Replies travel as decoded frames, not raw bytes: the receiving
// handler decodes once and resolves with the typed value, and the
// awaiter type-asserts — no payload is unmarshaled twice.
type PendingTable struct {
	mu   sync.Mutex
	next uint64
	m    map[uint64]chan any
}

// NewPendingTable returns an empty correlation table.
func NewPendingTable() *PendingTable {
	return &PendingTable{m: make(map[uint64]chan any)}
}

// Create registers a new request and returns its ID and reply channel.
func (p *PendingTable) Create() (uint64, chan any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.next++
	id := p.next
	ch := make(chan any, 1)
	p.m[id] = ch
	return id, ch
}

// Resolve delivers a decoded reply frame; late or unknown responses
// are dropped.
func (p *PendingTable) Resolve(id uint64, reply any) {
	p.mu.Lock()
	ch, ok := p.m[id]
	if ok {
		delete(p.m, id)
	}
	p.mu.Unlock()
	if ok {
		select {
		case ch <- reply:
		default:
		}
	}
}

// Drop abandons a request.
func (p *PendingTable) Drop(id uint64) {
	p.mu.Lock()
	delete(p.m, id)
	p.mu.Unlock()
}

// Await waits for a response with a timeout measured on clk. On a
// synchronous transport the reply to a Send (if any) has already been
// delivered by the time Send returned, so an empty channel is a
// definitive timeout: Await returns immediately instead of blocking a
// wall-clock timeout out, which is what lets lossy simulations run
// 100k queries in seconds and keeps virtual clocks free of real
// waiting.
func Await(clk dsim.Clock, synchronous bool, ch chan any, timeout time.Duration) (any, error) {
	select {
	case reply := <-ch:
		return reply, nil
	default:
	}
	if synchronous {
		return nil, ErrTimeout
	}
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	if clk == nil {
		clk = dsim.Wall
	}
	select {
	case reply := <-ch:
		return reply, nil
	case <-clk.After(timeout):
		return nil, ErrTimeout
	}
}

// guidSource issues query GUIDs that are unique across the network yet
// deterministic per run: the high bits hash the issuing peer's ID, the
// low 24 bits count locally. A process-global counter would leak state
// between runs and break golden-trace reproducibility (two identical
// scenarios in one process would flood with different GUIDs).
type guidSource struct {
	prefix uint64
	ctr    atomic.Uint64
}

func newGUIDSource(id transport.PeerID) *guidSource {
	h := fnv.New64a()
	h.Write([]byte(id))
	return &guidSource{prefix: h.Sum64() << 24}
}

func (g *guidSource) next() uint64 { return g.prefix | (g.ctr.Add(1) & (1<<24 - 1)) }

// Neighbor sets are copy-on-write sorted slices: membership changes
// (rare: wiring, churn) build a fresh slice, reads (hot: every flood)
// share the current one with no snapshot, no sort, no allocation —
// and iteration order is deterministic by construction.

// peerSliceAdd returns a new sorted slice with peer inserted (no-op
// when already present). The input slice is never mutated.
func peerSliceAdd(s []transport.PeerID, peer transport.PeerID) []transport.PeerID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= peer })
	if i < len(s) && s[i] == peer {
		return s
	}
	out := make([]transport.PeerID, 0, len(s)+1)
	out = append(out, s[:i]...)
	out = append(out, peer)
	return append(out, s[i:]...)
}

// peerSliceRemove returns a new sorted slice without peer (no-op when
// absent). The input slice is never mutated.
func peerSliceRemove(s []transport.PeerID, peer transport.PeerID) []transport.PeerID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= peer })
	if i >= len(s) || s[i] != peer {
		return s
	}
	out := make([]transport.PeerID, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}

// ServeFetch answers MsgFetch from a local store: the provider side of
// Retrieve, shared by every protocol implementation (including the DHT
// overlay in internal/dht, which is why it is exported). When the
// inbound frame carries a trace context and tr is non-nil, the serve
// is recorded as a child span with the reply attributed to it.
func ServeFetch(tr *trace.Tracer, ep transport.Endpoint, store *index.Store, msg transport.Message) {
	var req fetchPayload
	if err := req.DecodeBinary(msg.Payload); err != nil {
		return
	}
	sp, tctx := HandlerSpan(tr, ep, msg, "fetch.serve")
	defer sp.Finish()
	reply := fetchReplyPayload{ReqID: req.ReqID}
	if doc, err := store.Get(req.DocID); err == nil {
		reply.Found = true
		reply.Doc = doc
	} else {
		sp.SetErr(fmt.Errorf("%w: %s", ErrNotProvided, req.DocID))
	}
	payload := codec.Encode(&reply)
	_ = ep.Send(transport.Message{
		To:      msg.From,
		Type:    MsgFetchReply,
		Payload: payload,
		TraceID: tctx.Trace,
		SpanID:  tctx.Span,
	})
	sp.AddMsgs(1, int64(len(payload)))
}

// HandlerSpan opens tr's span for an inbound frame, as a child of the
// frame's trace context, and returns it with the context the handler's
// own sends carry (the inbound one when tr records nothing). Every
// protocol's handlers share it, the DHT's included.
func HandlerSpan(tr *trace.Tracer, ep transport.Endpoint, msg transport.Message, op string) (trace.ActiveSpan, trace.Context) {
	inCtx := trace.Context{Trace: msg.TraceID, Span: msg.SpanID}
	sp := tr.StartAt(inCtx, op, transport.ChainOffset(ep))
	sp.SetPeer(string(msg.From))
	return sp, sp.ContextOr(inCtx)
}

// ServeAttachment answers MsgAttachment via the provider callback.
func ServeAttachment(tr *trace.Tracer, ep transport.Endpoint, provider AttachmentProvider, msg transport.Message) {
	var req attachmentPayload
	if err := req.DecodeBinary(msg.Payload); err != nil {
		return
	}
	sp, tctx := HandlerSpan(tr, ep, msg, "attachment.serve")
	defer sp.Finish()
	reply := attachmentReplyPayload{ReqID: req.ReqID}
	if provider != nil {
		if data, ok := provider(req.URI); ok {
			reply.Found = true
			reply.Data = data
		}
	}
	if !reply.Found {
		sp.SetErr(ErrNotProvided)
	}
	payload := codec.Encode(&reply)
	_ = ep.Send(transport.Message{
		To:      msg.From,
		Type:    MsgAttachmentReply,
		Payload: payload,
		TraceID: tctx.Trace,
		SpanID:  tctx.Span,
	})
	sp.AddMsgs(1, int64(len(payload)))
}

// RetrieveFrom implements the client side of Retrieve for every
// protocol. sp, when active, is the caller's fetch span: the request
// frame is stamped with its context and attributed to it (the caller
// finishes the span).
func RetrieveFrom(clk dsim.Clock, ep transport.Endpoint, pending *PendingTable, sp *trace.ActiveSpan, id index.DocID, from transport.PeerID, timeout time.Duration) (*index.Document, error) {
	reqID, ch := pending.Create()
	tctx := sp.Context()
	payload := codec.Encode(&fetchPayload{ReqID: reqID, DocID: id})
	err := ep.Send(transport.Message{
		To:      from,
		Type:    MsgFetch,
		Payload: payload,
		TraceID: tctx.Trace,
		SpanID:  tctx.Span,
	})
	sp.AddMsgs(1, int64(len(payload)))
	if err != nil {
		pending.Drop(reqID)
		sp.SetErr(err)
		return nil, fmt.Errorf("p2p: fetch: %w", err)
	}
	got, err := Await(clk, ep.Synchronous(), ch, timeout)
	if err != nil {
		pending.Drop(reqID)
		sp.SetErr(err)
		return nil, err
	}
	reply, ok := got.(*fetchReplyPayload)
	if !ok {
		return nil, fmt.Errorf("p2p: fetch reply: unexpected frame %T", got)
	}
	if !reply.Found || reply.Doc == nil {
		err := fmt.Errorf("%w: %s at %s", ErrNotProvided, id, from)
		sp.SetErr(err)
		return nil, err
	}
	return reply.Doc, nil
}

// RetrieveAttachmentFrom implements the client side of attachment
// download for both protocols. sp is the caller's span, as in
// RetrieveFrom.
func RetrieveAttachmentFrom(clk dsim.Clock, ep transport.Endpoint, pending *PendingTable, sp *trace.ActiveSpan, uri string, from transport.PeerID, timeout time.Duration) ([]byte, error) {
	reqID, ch := pending.Create()
	tctx := sp.Context()
	payload := codec.Encode(&attachmentPayload{ReqID: reqID, URI: uri})
	err := ep.Send(transport.Message{
		To:      from,
		Type:    MsgAttachment,
		Payload: payload,
		TraceID: tctx.Trace,
		SpanID:  tctx.Span,
	})
	sp.AddMsgs(1, int64(len(payload)))
	if err != nil {
		pending.Drop(reqID)
		sp.SetErr(err)
		return nil, fmt.Errorf("p2p: attachment: %w", err)
	}
	got, err := Await(clk, ep.Synchronous(), ch, timeout)
	if err != nil {
		pending.Drop(reqID)
		sp.SetErr(err)
		return nil, err
	}
	reply, ok := got.(*attachmentReplyPayload)
	if !ok {
		return nil, fmt.Errorf("p2p: attachment reply: unexpected frame %T", got)
	}
	if !reply.Found {
		err := fmt.Errorf("%w: attachment %s at %s", ErrNotProvided, uri, from)
		sp.SetErr(err)
		return nil, err
	}
	return reply.Data, nil
}

// ResolveRetrievalReply routes an inbound MsgFetchReply or
// MsgAttachmentReply to its awaiting request: decode once, resolve
// with the typed frame. It reports whether the message was one of the
// retrieval reply types (decoded or not), so protocol handlers can
// delegate both cases in one call.
func ResolveRetrievalReply(pending *PendingTable, msg transport.Message) bool {
	switch msg.Type {
	case MsgFetchReply:
		var reply fetchReplyPayload
		if err := reply.DecodeBinary(msg.Payload); err == nil {
			pending.Resolve(reply.ReqID, &reply)
		}
		return true
	case MsgAttachmentReply:
		var reply attachmentReplyPayload
		if err := reply.DecodeBinary(msg.Payload); err == nil {
			pending.Resolve(reply.ReqID, &reply)
		}
		return true
	}
	return false
}

// ReannounceLocal streams every document in the local store through
// announce, in DocID order. It is the shared "re-register everything I
// hold" step behind leaf re-registration after super-peer failover
// (CentralizedClient.Rehome, and therefore FastTrackLeaf.Rehome) and
// behind the DHT overlay's republish/bucket-repair path — one
// definition of what a peer re-announces, three recovery mechanisms.
func ReannounceLocal(store *index.Store, announce func(docs []*index.Document) error) error {
	return announce(store.Search("", query.MatchAll{}, 0))
}
