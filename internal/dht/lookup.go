package dht

import (
	"sync"

	"repro/internal/errs"
	"repro/internal/p2p"
	"repro/internal/p2p/codec"
	"repro/internal/trace"
	"repro/internal/transport"
)

// lookupRPC is one in-flight wave RPC.
type lookupRPC struct {
	contact Contact
	reqID   uint64
	ch      chan any
}

// lookupScratch pools a lookup's working state — shortlist, wave, and
// bookkeeping maps — so the per-lookup steady state reuses slice
// capacity and map buckets instead of reallocating them. Pooled (not
// one-per-node) because sub-key fan-in re-enters lookup recursively:
// every activation gets its own scratch.
type lookupScratch struct {
	short    []Contact
	wave     []lookupRPC
	state    map[transport.PeerID]peerState
	known    map[transport.PeerID]bool
	returned map[transport.PeerID]bool
	recs     map[recordKey]Record
}

var lookupScratchPool = sync.Pool{New: func() any {
	return &lookupScratch{
		state:    make(map[transport.PeerID]peerState),
		known:    make(map[transport.PeerID]bool),
		returned: make(map[transport.PeerID]bool),
		recs:     make(map[recordKey]Record),
	}
}}

// valueQuery makes a lookup carry FIND_VALUE semantics: holders of
// the target key evaluate the community/filter server-side and return
// matching records alongside their closest contacts.
type valueQuery struct {
	communityID string
	filter      string
	limit       int
	// stopOnValue applies Kademlia's value-terminating FIND_VALUE:
	// stop at the end of the first wave in which a node returned a
	// Complete (cached, full-result-set) reply, instead of converging
	// on the full K closest. This is what lets cached copies absorb a
	// flash crowd — a querier that hits a cache on the lookup path
	// never reaches the key's k holders at all. Termination requires
	// the Complete flag: a record set, unlike Kademlia's atomic
	// values, can be partially replicated, so stopping on just any
	// records would silently lose recall.
	stopOnValue bool
	// sub marks a sub-key fan-in lookup of a split key, which must not
	// fan in again (sub-keys live in their own derive domain and are
	// never split, so this is belt and braces).
	sub bool
}

// lookupOutcome is the result of one iterative lookup.
type lookupOutcome struct {
	// contacts are the responsive nodes closest to the target, by
	// distance, at most K.
	contacts []Contact
	// records are the FIND_VALUE results, deduped by (DocID,
	// Provider) and sorted.
	records []Record
	// rounds is how many α-wide RPC waves the lookup took: its hop
	// count.
	rounds int
	// cacheTarget is the closest responded node that returned no
	// records — Kademlia's caching-STORE recipient — valid only when
	// hasCacheTarget is set.
	cacheTarget    Contact
	hasCacheTarget bool
	// limited reports that the lookup stopped early because it had
	// collected limit records: the set may be a truncation of the full
	// result, so it must never be cached.
	limited bool
	// fromCache reports that the lookup value-terminated on a Complete
	// cached reply: the record set already includes any sub-key
	// fan-in results it was cached with, so the caller skips fan-in.
	fromCache bool
}

// peerState tracks one shortlist entry through a lookup.
type peerState int

const (
	stateNew peerState = iota
	stateResponded
	stateFailed
)

// lookup runs the iterative Kademlia node/value lookup toward target.
// Each round queries the α closest unqueried candidates among the K
// best known, merges the contacts (and records) they return, and
// stops when the K closest known nodes have all been queried — the
// standard convergence rule, reaching the key's neighborhood in
// O(log n) rounds.
//
// On the synchronous simulated network every reply has already been
// handled when Send returns, so a "parallel" wave degenerates to α
// deterministic sequential RPCs; on TCP the α RPCs genuinely overlap
// and Await applies the RPC timeout. Candidates are always processed
// in sorted distance order, never map order, so two runs of one seed
// issue identical message sequences.
//
// tctx, when valid, ties the lookup into a sampled trace: each wave
// becomes one span (a child of the caller's span) and every RPC frame
// it sends is stamped with and attributed to its wave.
func (n *Node) lookup(tctx trace.Context, target ID, vq *valueQuery) lookupOutcome {
	var out lookupOutcome
	sc := lookupScratchPool.Get().(*lookupScratch)
	short := n.table.ClosestAppend(sc.short[:0], target, 0)
	state, known, returned, recs := sc.state, sc.known, sc.returned, sc.recs
	defer func() {
		sc.short = short[:0]
		clear(state)
		clear(known)
		clear(returned)
		clear(recs)
		lookupScratchPool.Put(sc)
	}()
	for _, c := range short {
		known[c.Peer] = true
	}
	// returned marks peers whose reply carried records (they hold the
	// value, so they are not cache-STORE candidates); splitFanout is
	// the widest sub-key split any holder advertised, capped at
	// cfg.SplitFanout.
	splitFanout := 0

	for {
		// Pick up to α unqueried candidates among the K closest
		// still-viable entries. Each wave is one trace span; the RPCs
		// it issues are stamped with the wave's context.
		wsp := n.tracer.Start(tctx, "wave")
		wctx := wsp.ContextOr(tctx)
		wave := sc.wave[:0]
		viable := 0
		for _, c := range short {
			if state[c.Peer] == stateFailed {
				continue
			}
			viable++
			if viable > n.cfg.K {
				break
			}
			if state[c.Peer] != stateNew {
				continue
			}
			reqID, ch := n.pending.Create()
			nbytes, err := n.sendLookupRPC(c.Peer, reqID, target, vq, wctx)
			wsp.AddMsgs(1, int64(nbytes))
			if err != nil {
				n.pending.Drop(reqID)
				state[c.Peer] = stateFailed
				n.reg.CountError(errs.Wrap("dht.lookup_rpc", err, "dht: lookup rpc failed"))
				if transport.IsPeerDead(err) {
					n.table.Remove(c.Peer)
				}
				continue
			}
			state[c.Peer] = stateResponded // provisional; demoted on timeout
			wave = append(wave, lookupRPC{contact: c, reqID: reqID, ch: ch})
			if len(wave) == n.cfg.Alpha {
				break
			}
		}
		sc.wave = wave
		if len(wave) == 0 {
			break // span dropped unrecorded: an empty wave is not a round
		}
		out.rounds++
		grew := false
		for _, r := range wave {
			got, err := p2p.Await(n.clk, n.ep.Synchronous(), r.ch, n.cfg.RPCTimeout)
			if err != nil {
				n.pending.Drop(r.reqID)
				state[r.contact.Peer] = stateFailed
				n.reg.CountError(errs.Wrap("dht.lookup_rpc", err, "dht: lookup rpc failed"))
				continue
			}
			// The handler resolved the reply as a typed frame: a
			// find-value reply, or a find-node reply (peers only).
			var records []Record
			var peers []transport.PeerID
			switch reply := got.(type) {
			case *findValueReplyPayload:
				records, peers = reply.Records, reply.Peers
				if reply.Complete {
					out.fromCache = true
				}
				split := reply.Split
				if split > n.cfg.SplitFanout {
					// Peer input: a holder may not widen the fan-in
					// past this node's own configured fanout.
					split = n.cfg.SplitFanout
					n.mSplitRejected.Inc()
				}
				if split > splitFanout {
					splitFanout = split
				}
			case *findNodeReplyPayload:
				peers = reply.Peers
			default:
				state[r.contact.Peer] = stateFailed
				continue
			}
			if len(records) > 0 {
				returned[r.contact.Peer] = true
			}
			for _, rec := range records {
				recs[recordKey{rec.DocID, rec.Provider}] = rec
			}
			for _, peer := range peers {
				if peer == n.ep.ID() || known[peer] {
					continue
				}
				known[peer] = true
				short = append(short, ContactFor(peer))
				grew = true
			}
		}
		if grew {
			sortByDistance(short, target)
		}
		wsp.Finish()
		if vq != nil && len(recs) > 0 {
			// Limit short-circuit: enough matches collected, the
			// remaining convergence rounds would only cost messages.
			// The set may be a truncation, so flag it uncacheable.
			if vq.limit > 0 && len(recs) >= vq.limit {
				out.limited = true
				n.mShortcircuits.Inc()
				break
			}
			// Value termination (Kademlia FIND_VALUE): a Complete
			// cached reply ends the lookup — the flash crowd stops at
			// the path copy instead of converging on the holders.
			if vq.stopOnValue && out.fromCache {
				break
			}
		}
	}

	for _, c := range short {
		if state[c.Peer] == stateResponded {
			out.contacts = append(out.contacts, c)
			if len(out.contacts) == n.cfg.K {
				break
			}
		}
	}
	// The caching-STORE recipient: the closest observed node that
	// answered but did not itself return records. In a converged
	// lookup the top-K contacts are all holders, so the scan covers
	// the whole responded shortlist — the recipient is typically a
	// node just outside the key's replica neighborhood, which is
	// exactly where a cache intercepts the next querier's waves.
	for _, c := range short {
		if state[c.Peer] == stateResponded && !returned[c.Peer] {
			out.cacheTarget = c
			out.hasCacheTarget = true
			break
		}
	}
	// Transparent sub-key fan-in: when a holder advertised that this
	// community key is split, the matching records live spread over
	// attribute-hash sub-keys; look each one up and merge. Sub-lookups
	// are themselves plain FIND_VALUE lookups (counted as lookups, and
	// their rounds add to the hop count) but never fan in again.
	if vq != nil && !vq.sub && vq.communityID != "" && splitFanout > 0 && !out.limited && !out.fromCache {
		for shard := 0; shard < splitFanout; shard++ {
			svq := *vq
			svq.sub = true
			sub := n.lookup(tctx, KeyForCommunityShard(vq.communityID, shard), &svq)
			for _, rec := range sub.records {
				recs[recordKey{rec.DocID, rec.Provider}] = rec
			}
			out.rounds += sub.rounds
			if sub.limited {
				out.limited = true
			}
			if vq.limit > 0 && len(recs) >= vq.limit {
				out.limited = true
				break
			}
		}
	}
	if len(recs) > 0 {
		out.records = make([]Record, 0, len(recs))
		for _, rec := range recs {
			out.records = append(out.records, rec)
		}
		sortRecords(out.records)
	}
	n.mLookups.Inc()
	n.mRounds.Add(int64(out.rounds))
	return out
}

// sendLookupRPC issues the wave's RPC — FIND_VALUE when a value query
// rides along, FIND_NODE otherwise — and returns the payload size it
// sent so the caller can attribute the frame to the wave span.
func (n *Node) sendLookupRPC(to transport.PeerID, reqID uint64, target ID, vq *valueQuery, wctx trace.Context) (int, error) {
	n.mContacted.Inc()
	var typ string
	var payload []byte
	if vq != nil {
		typ = MsgFindValue
		payload = codec.Encode(&findValuePayload{
			ReqID:       reqID,
			Key:         target,
			CommunityID: vq.communityID,
			Filter:      vq.filter,
			Limit:       vq.limit,
		})
	} else {
		typ = MsgFindNode
		payload = codec.Encode(&findNodePayload{ReqID: reqID, Target: target})
	}
	err := n.ep.Send(transport.Message{
		To:      to,
		Type:    typ,
		Payload: payload,
		TraceID: wctx.Trace,
		SpanID:  wctx.Span,
	})
	return len(payload), err
}
