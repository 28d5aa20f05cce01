package p2p

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/p2p/codec"
	"repro/internal/query"
	"repro/internal/trace"
	"repro/internal/transport"
)

// FastTrack-style super-peer protocol: the third network named in the
// paper's Fig. 3 protocol enumeration. Ordinary peers (leaves) attach
// to one super-peer and upload their metadata to it, as Napster
// clients do to the central server; super-peers flood queries among
// themselves, as Gnutella nodes do. The hybrid bounds flooding to the
// (much smaller) super-peer overlay while avoiding a single central
// index.
//
// Message reuse: leaves speak the centralized wire protocol
// (register/unregister/search) to their super-peer; super-peers speak
// the Gnutella wire protocol (query/query-hit) among themselves.
// Retrieval is the shared direct fetch protocol in both roles.

// serverEntry is one leaf registration on a super-peer.
type serverEntry struct {
	provider    transport.PeerID
	communityID string
	title       string
	attrs       query.Attrs
}

// SuperPeer is a FastTrack hub: it indexes its leaves' metadata and
// floods queries across the super-peer overlay.
type SuperPeer struct {
	ep     transport.Endpoint
	guids  *guidSource
	tracer *trace.Tracer

	mu        sync.RWMutex
	leafIndex map[index.DocID][]serverEntry
	// docIDs mirrors leafIndex's keys in sorted order, maintained on
	// registration/removal, so every search iterates deterministically
	// without re-sorting the keyset on the query hot path.
	docIDs []index.DocID
	// neighbors is a copy-on-write sorted slice, like GnutellaNode's:
	// overlay floods iterate it with no snapshot allocation.
	neighbors []transport.PeerID
	seen      map[uint64]transport.PeerID
	collect   map[uint64]*hitCollector
	closed    bool
}

// NewSuperPeer attaches a super-peer to the network. It records spans
// on env.Tracer and keeps no timers or counters of its own.
func NewSuperPeer(ep transport.Endpoint, env Env) *SuperPeer {
	s := &SuperPeer{
		ep:        ep,
		guids:     newGUIDSource(ep.ID()),
		tracer:    env.Tracer,
		leafIndex: make(map[index.DocID][]serverEntry),
		seen:      make(map[uint64]transport.PeerID),
		collect:   make(map[uint64]*hitCollector),
	}
	ep.SetHandler(s.handle)
	return s
}

// PeerID returns the super-peer's identity.
func (s *SuperPeer) PeerID() transport.PeerID { return s.ep.ID() }

// AddNeighbor links this super-peer to another (one direction).
func (s *SuperPeer) AddNeighbor(peer transport.PeerID) {
	if peer == s.ep.ID() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.neighbors = peerSliceAdd(s.neighbors, peer)
}

// RemoveNeighbor unlinks a failed super-peer from the overlay.
func (s *SuperPeer) RemoveNeighbor(peer transport.PeerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.neighbors = peerSliceRemove(s.neighbors, peer)
}

// Neighbors returns a copy of the current super-peer overlay links,
// sorted.
func (s *SuperPeer) Neighbors() []transport.PeerID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return slices.Clone(s.neighbors)
}

// Len returns the number of distinct documents indexed for leaves.
func (s *SuperPeer) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.leafIndex)
}

// DropLeaf removes a departed leaf's registrations.
func (s *SuperPeer) DropLeaf(peer transport.PeerID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id, entries := range s.leafIndex {
		kept := entries[:0]
		for _, e := range entries {
			if e.provider != peer {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(s.leafIndex, id)
			s.removeDocIDLocked(id)
		} else {
			s.leafIndex[id] = kept
		}
	}
}

// insertDocIDLocked adds id to the sorted keyset mirror (caller holds
// mu; no-op if present).
func (s *SuperPeer) insertDocIDLocked(id index.DocID) {
	i := sort.Search(len(s.docIDs), func(k int) bool { return s.docIDs[k] >= id })
	if i < len(s.docIDs) && s.docIDs[i] == id {
		return
	}
	s.docIDs = append(s.docIDs, "")
	copy(s.docIDs[i+1:], s.docIDs[i:])
	s.docIDs[i] = id
}

// removeDocIDLocked drops id from the sorted keyset mirror (caller
// holds mu).
func (s *SuperPeer) removeDocIDLocked(id index.DocID) {
	i := sort.Search(len(s.docIDs), func(k int) bool { return s.docIDs[k] >= id })
	if i < len(s.docIDs) && s.docIDs[i] == id {
		s.docIDs = append(s.docIDs[:i], s.docIDs[i+1:]...)
	}
}

// Close detaches the super-peer.
func (s *SuperPeer) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	return s.ep.Close()
}

func (s *SuperPeer) handle(msg transport.Message) {
	switch msg.Type {
	case MsgRegister:
		var reg registerPayload
		if err := reg.DecodeBinary(msg.Payload); err != nil {
			return
		}
		sp, _ := HandlerSpan(s.tracer, s.ep, msg, "register.serve")
		s.registerLeaf(msg.From, []registerPayload{reg})
		sp.Finish()
	case MsgRegisterBatch:
		var batch registerBatchPayload
		if err := batch.DecodeBinary(msg.Payload); err != nil {
			return
		}
		sp, _ := HandlerSpan(s.tracer, s.ep, msg, "register.serve")
		s.registerLeaf(msg.From, batch.Docs)
		sp.Finish()
	case MsgUnregister:
		var unreg unregisterPayload
		if err := unreg.DecodeBinary(msg.Payload); err != nil {
			return
		}
		s.mu.Lock()
		entries := s.leafIndex[unreg.DocID]
		kept := entries[:0]
		for _, e := range entries {
			if e.provider != msg.From {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(s.leafIndex, unreg.DocID)
			s.removeDocIDLocked(unreg.DocID)
		} else {
			s.leafIndex[unreg.DocID] = kept
		}
		s.mu.Unlock()
	case MsgSearch:
		// A leaf's search: answer from the local leaf index, then flood
		// the super-peer overlay and merge.
		s.handleLeafSearch(msg)
	case MsgQuery:
		s.handleQuery(msg)
	case MsgQueryHit:
		s.handleQueryHit(msg)
	}
}

// registerLeaf upserts one leaf's registrations (single or batched).
func (s *SuperPeer) registerLeaf(from transport.PeerID, regs []registerPayload) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, reg := range regs {
		entries := s.leafIndex[reg.DocID]
		if len(entries) == 0 {
			s.insertDocIDLocked(reg.DocID)
		}
		replaced := false
		for i, e := range entries {
			if e.provider == from {
				entries[i] = serverEntry{from, reg.CommunityID, reg.Title, reg.Attrs}
				replaced = true
				break
			}
		}
		if !replaced {
			entries = append(entries, serverEntry{from, reg.CommunityID, reg.Title, reg.Attrs})
		}
		s.leafIndex[reg.DocID] = entries
	}
}

// handleLeafSearch serves a leaf: local hits immediately, remote hits
// gathered by flooding other super-peers.
func (s *SuperPeer) handleLeafSearch(msg transport.Message) {
	var req searchPayload
	if err := req.DecodeBinary(msg.Payload); err != nil {
		return
	}
	sp, tctx := HandlerSpan(s.tracer, s.ep, msg, "leaf.search")
	sp.SetCommunity(req.CommunityID)
	defer sp.Finish()
	f, err := query.Parse(req.Filter)
	if err != nil {
		f = query.MatchAll{}
	}
	results := s.localSearch(req.CommunityID, f, req.Limit)

	guid := s.guids.next()
	col := &hitCollector{done: make(chan struct{}), limit: req.Limit}
	col.add(results)
	s.mu.Lock()
	s.collect[guid] = col
	s.seen[guid] = s.ep.ID()
	neighbors := s.neighbors
	s.mu.Unlock()
	q := queryPayload{
		GUID:        guid,
		Origin:      s.ep.ID(),
		CommunityID: req.CommunityID,
		Filter:      f.String(),
		TTL:         DefaultTTL,
	}
	payload := codec.Encode(&q)
	for _, n := range neighbors {
		_ = s.ep.Send(transport.Message{To: n, Type: MsgQuery, Payload: payload,
			TraceID: tctx.Trace, SpanID: tctx.Span})
		sp.AddMsgs(1, int64(len(payload)))
	}
	// On the synchronous simulator the flood has completed; reply with
	// everything collected. (Over TCP a production implementation would
	// defer the reply; the experiments run on the simulator.)
	merged := col.snapshot(req.Limit)
	s.mu.Lock()
	delete(s.collect, guid)
	s.mu.Unlock()
	reply := codec.Encode(&searchHitPayload{ReqID: req.ReqID, Results: merged})
	_ = s.ep.Send(transport.Message{
		To:      msg.From,
		Type:    MsgSearchHit,
		Payload: reply,
		TraceID: tctx.Trace,
		SpanID:  tctx.Span,
	})
	sp.AddMsgs(1, int64(len(reply)))
}

// localSearch scans the leaf index in DocID order (providers keep
// registration order within a document), so identical registrations
// always yield identically ordered hits — map-order results would leak
// nondeterminism into every query-hit payload. The sorted docIDs
// mirror makes this free at query time.
func (s *SuperPeer) localSearch(communityID string, f query.Filter, limit int) []Result {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Result
	for _, id := range s.docIDs {
		for _, e := range s.leafIndex[id] {
			if communityID != "" && e.communityID != communityID {
				continue
			}
			if !f.Match(e.attrs) {
				continue
			}
			out = append(out, Result{
				DocID:       id,
				Provider:    e.provider,
				CommunityID: e.communityID,
				Title:       e.title,
				Attrs:       e.attrs,
			})
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

func (s *SuperPeer) handleQuery(msg transport.Message) {
	var q queryPayload
	if err := q.DecodeBinary(msg.Payload); err != nil {
		return
	}
	sp, tctx := HandlerSpan(s.tracer, s.ep, msg, "query")
	sp.SetCommunity(q.CommunityID)
	defer sp.Finish()
	s.mu.Lock()
	if _, dup := s.seen[q.GUID]; dup {
		s.mu.Unlock()
		sp.SetOp("query.dup")
		return
	}
	s.seen[q.GUID] = msg.From
	neighbors := s.neighbors
	s.mu.Unlock()
	f, err := query.Parse(q.Filter)
	if err != nil {
		return
	}
	hops := q.Hops + 1
	results := s.localSearch(q.CommunityID, f, 0)
	for i := range results {
		results[i].Hops = hops
	}
	if len(results) > 0 {
		hit := codec.Encode(&queryHitPayload{GUID: q.GUID, Results: results})
		_ = s.ep.Send(transport.Message{
			To:      msg.From,
			Type:    MsgQueryHit,
			Payload: hit,
			TraceID: tctx.Trace,
			SpanID:  tctx.Span,
		})
		sp.AddMsgs(1, int64(len(hit)))
	}
	if q.TTL <= 1 {
		return
	}
	fwd := q
	fwd.TTL--
	fwd.Hops = hops
	payload := codec.Encode(&fwd)
	for _, n := range neighbors {
		if n != msg.From {
			_ = s.ep.Send(transport.Message{To: n, Type: MsgQuery, Payload: payload,
				TraceID: tctx.Trace, SpanID: tctx.Span})
			sp.AddMsgs(1, int64(len(payload)))
		}
	}
}

func (s *SuperPeer) handleQueryHit(msg transport.Message) {
	var hit queryHitPayload
	if err := hit.DecodeBinary(msg.Payload); err != nil {
		return
	}
	s.mu.RLock()
	col := s.collect[hit.GUID]
	back, seen := s.seen[hit.GUID]
	self := s.ep.ID()
	s.mu.RUnlock()
	if col != nil {
		sp, _ := HandlerSpan(s.tracer, s.ep, msg, "hit")
		sp.Finish()
		col.add(hit.Results)
		return
	}
	if !seen || back == self {
		return
	}
	sp, tctx := HandlerSpan(s.tracer, s.ep, msg, "hit.relay")
	_ = s.ep.Send(transport.Message{To: back, Type: MsgQueryHit, Payload: msg.Payload,
		TraceID: tctx.Trace, SpanID: tctx.Span})
	sp.AddMsgs(1, int64(len(msg.Payload)))
	sp.Finish()
}

// FastTrackLeaf is an ordinary peer in the super-peer network. Its
// wire behaviour toward the super-peer is exactly the centralized
// client's, so it simply wraps one — including Rehome, which moves the
// leaf to a live super-peer and re-registers its documents after its
// super-peer fails.
type FastTrackLeaf struct {
	*CentralizedClient
}

var _ Network = (*FastTrackLeaf)(nil)

// NewFastTrackLeaf attaches a leaf to its super-peer. Its telemetry is
// labeled as fasttrack traffic.
func NewFastTrackLeaf(ep transport.Endpoint, super transport.PeerID, store *index.Store, env Env) *FastTrackLeaf {
	return &FastTrackLeaf{CentralizedClient: newClient(ep, super, store, env, "fasttrack")}
}
