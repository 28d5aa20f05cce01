package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// span is one timed interval at a layer boundary. Spans of one timed
// operation share Op; Parent is the span that caused this one (0 for
// a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Op     int64         `json:"op,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// spanStore keeps a traced run's spans in memory; they are written
// out once the run ends. A nil *spanStore records nothing, which is
// how untraced runs call the same code.
type spanStore struct {
	base time.Time

	mu    sync.Mutex
	spans []span
	// open maps a goroutine to the innermost span it has open, so a
	// wrapper called deeper on the same goroutine (the p2p.Network
	// under an http.Handler) can name its parent.
	open map[uint64]int64
}

func newSpanStore() *spanStore {
	return &spanStore{base: time.Now(), open: make(map[uint64]int64)}
}

// begin opens a span and returns its ID.
func (s *spanStore) begin(name string, op, parent int64) int64 {
	if s == nil {
		return 0
	}
	now := time.Since(s.base)
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.spans)) + 1
	s.spans = append(s.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	return id
}

// now is the store's clock: time since it was made.
func (s *spanStore) now() time.Duration {
	if s == nil {
		return 0
	}
	return time.Since(s.base)
}

// end closes span id.
func (s *spanStore) end(id int64) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.base)
	s.mu.Lock()
	s.spans[id-1].End = now
	s.mu.Unlock()
}

// lookup returns span id's operation.
func (s *spanStore) opOf(id int64) int64 {
	if s == nil || id <= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) > len(s.spans) {
		return 0
	}
	return s.spans[id-1].Op
}

// enter marks span id as the innermost open span of goroutine g;
// leave restores the previous one.
func (s *spanStore) enter(g uint64, id int64) (prev int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev = s.open[g]
	s.open[g] = id
	return prev
}

func (s *spanStore) leave(g uint64, prev int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev == 0 {
		delete(s.open, g)
	} else {
		s.open[g] = prev
	}
}

// current returns goroutine g's innermost open span and its op.
func (s *spanStore) current(g uint64) (id, op int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id = s.open[g]
	if id > 0 {
		op = s.spans[id-1].Op
	}
	return id, op
}

// snapshot returns the closed spans.
func (s *spanStore) snapshot() []span {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]span, 0, len(s.spans))
	for _, sp := range s.spans {
		if sp.End >= 0 {
			out = append(out, sp)
		}
	}
	return out
}

// writeJSONL writes every closed span, one JSON object a line.
func (s *spanStore) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range s.snapshot() {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span, its duration minus the time its
// children cover. Children of one span run on the span's own
// goroutine here, so they do not overlap one another.
func selfTimes(spans []span) map[int64]time.Duration {
	self := make(map[int64]time.Duration, len(spans))
	for _, sp := range spans {
		self[sp.ID] += sp.dur()
		if sp.Parent != 0 {
			self[sp.Parent] -= sp.dur()
		}
	}
	return self
}

// goid returns the calling goroutine's ID, parsed from its stack
// header. It costs about a microsecond, paid only by traced runs.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	b := bytes.TrimPrefix(buf[:n], []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// --- wrappers the traced run installs around each layer ---

// tracedEndpoint times every Send and every inbound handler call of
// a transport.Endpoint and counts the payload bytes it is handed.
type tracedEndpoint struct {
	transport.Endpoint
	st           *spanStore
	payloadBytes *atomic.Int64
}

func (e *tracedEndpoint) Send(msg transport.Message) error {
	id := e.st.begin("transport.send", 0, 0)
	err := e.Endpoint.Send(msg)
	e.st.end(id)
	e.payloadBytes.Add(int64(len(msg.Payload)))
	return err
}

func (e *tracedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(msg transport.Message) {
		id := e.st.begin("transport.handle", 0, 0)
		h(msg)
		e.st.end(id)
	})
}

// tracedNetwork times the p2p.Network calls a servent makes, as
// children of the HTTP request span open on the same goroutine.
type tracedNetwork struct {
	p2p.Network
	st *spanStore
}

func (n *tracedNetwork) wrap(name string, call func()) {
	g := goid()
	parent, op := n.st.current(g)
	id := n.st.begin(name, op, parent)
	prev := n.st.enter(g, id)
	call()
	n.st.leave(g, prev)
	n.st.end(id)
}

func (n *tracedNetwork) Search(communityID string, f query.Filter, opts p2p.SearchOptions) (rs []p2p.Result, err error) {
	n.wrap("p2p.search", func() { rs, err = n.Network.Search(communityID, f, opts) })
	return rs, err
}

func (n *tracedNetwork) Publish(doc *index.Document) (err error) {
	n.wrap("p2p.publish", func() { err = n.Network.Publish(doc) })
	return err
}

func (n *tracedNetwork) PublishBatch(docs []*index.Document) (err error) {
	n.wrap("p2p.publish", func() { err = n.Network.PublishBatch(docs) })
	return err
}

func (n *tracedNetwork) Retrieve(id index.DocID, from transport.PeerID) (doc *index.Document, err error) {
	n.wrap("p2p.retrieve", func() { doc, err = n.Network.Retrieve(id, from) })
	return doc, err
}

func (n *tracedNetwork) RetrieveAttachment(uri string, from transport.PeerID) (b []byte, err error) {
	n.wrap("p2p.retrieve", func() { b, err = n.Network.RetrieveAttachment(uri, from) })
	return b, err
}

// spanHeader carries the client's span ID to the server so the
// request span can name its parent and operation.
const spanHeader = "X-Perfbench-Span"

// tracedHandler times ServeHTTP as the child of the client span named
// in the request header.
type tracedHandler struct {
	next http.Handler
	st   *spanStore
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	id := h.st.begin("http.serve"+r.URL.Path, h.st.opOf(parent), parent)
	g := goid()
	prev := h.st.enter(g, id)
	h.next.ServeHTTP(w, r)
	h.st.leave(g, prev)
	h.st.end(id)
}

// spanFile names a run's span dump.
func spanFile(dir, workload string, seed int64) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", dir, workload, seed)
}
