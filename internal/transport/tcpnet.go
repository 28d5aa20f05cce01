package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// maxFrame bounds a single wire frame body (16 MiB) so a corrupt
// length prefix cannot exhaust memory.
const maxFrame = 16 << 20

// writeTimeout bounds one frame write. A peer that stops reading
// fills its socket buffers and then fails the writes toward it after
// this long; only its own traffic waits, since writes are serialised
// per connection. Long enough for a slow uplink to drain a large
// frame, short enough that a stalled peer is dropped in seconds. It
// also bounds the dial, so a black-holed address holds a Send for
// this long rather than the OS connect timeout.
const writeTimeout = 5 * time.Second

// lenPrefix is the size of the big-endian frame length.
const lenPrefix = 4

// TCPNode is a peer endpoint over real TCP. Each frame is a 4-byte
// big-endian body length followed by the binary envelope (see
// appendEnvelope): From, To, Type, TraceID and SpanID as varint-framed
// fields, then the raw payload to the end of the body. Send writes a
// whole frame with one Write under a per-connection lock and a write
// deadline. Outbound connections are cached per destination address;
// inbound messages are dispatched to the handler on per-connection
// goroutines, and a received Payload is a sub-slice of its frame.
//
// Peer addressing: TCP has no directory, so peers are identified by
// their listen address ("host:port") — PeerID and dial address
// coincide.
type TCPNode struct {
	ln      net.Listener
	id      PeerID
	handler atomic.Pointer[Handler]
	// mu guards the connection tables and closed; it is never held
	// across a read or a write.
	mu      sync.Mutex
	conns   map[PeerID]*tcpConn
	inbound map[net.Conn]struct{}
	closed  bool
	wg      sync.WaitGroup

	reg       *metrics.Registry
	mSent     *metrics.Counter
	mSentB    *metrics.Counter
	mReceived *metrics.Counter
	mRecvB    *metrics.Counter
}

// tcpConn is an outbound connection; mu keeps concurrent frames from
// interleaving on its stream.
type tcpConn struct {
	mu sync.Mutex
	net.Conn
}

var _ Endpoint = (*TCPNode)(nil)

// ListenTCP starts a node on addr (use "127.0.0.1:0" for an ephemeral
// port; the assigned address becomes the node's PeerID).
func ListenTCP(addr string) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	n := &TCPNode{
		ln:      ln,
		id:      PeerID(ln.Addr().String()),
		conns:   make(map[PeerID]*tcpConn),
		inbound: make(map[net.Conn]struct{}),
	}
	n.SetMetrics(metrics.Discard())
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// SetMetrics points the node's traffic accounting at reg. Call it
// before traffic starts; metrics are discarded until then.
func (n *TCPNode) SetMetrics(reg *metrics.Registry) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.reg = reg
	n.mSent = reg.Counter("transport.tcp_msgs_sent")
	n.mSentB = reg.Counter("transport.tcp_bytes_sent")
	n.mReceived = reg.Counter("transport.tcp_msgs_received")
	n.mRecvB = reg.Counter("transport.tcp_bytes_received")
}

// ID implements Endpoint.
func (n *TCPNode) ID() PeerID { return n.id }

// Synchronous implements Endpoint: TCP delivery is asynchronous.
func (n *TCPNode) Synchronous() bool { return false }

// SetHandler implements Endpoint.
func (n *TCPNode) SetHandler(h Handler) {
	if h == nil {
		n.handler.Store(nil)
		return
	}
	n.handler.Store(&h)
}

// framePool recycles Send's frame buffers; frames above
// maxPooledFrame are left to the collector rather than pinned.
var framePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 1024)
	return &b
}}

const maxPooledFrame = 64 << 10

// Send implements Endpoint. The destination PeerID is its TCP address.
// A failed write drops the connection, because the stream may now end
// in a partial frame; the next Send dials afresh.
func (n *TCPNode) Send(msg Message) error {
	msg.From = n.id
	c, err := n.conn(msg.To)
	if err != nil {
		return err
	}
	bp := framePool.Get().(*[]byte)
	defer func() {
		if cap(*bp) <= maxPooledFrame {
			framePool.Put(bp)
		}
	}()
	// Reserve the length prefix, append the body, then fill the prefix
	// in: the whole frame goes out in one Write.
	frame := appendEnvelope(append((*bp)[:0], 0, 0, 0, 0), &msg)
	*bp = frame
	body := len(frame) - lenPrefix
	if body > maxFrame {
		return fmt.Errorf("transport: frame too large (%d bytes)", body)
	}
	binary.BigEndian.PutUint32(frame, uint32(body))
	c.mu.Lock()
	err = c.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err == nil {
		_, err = c.Write(frame)
	}
	c.mu.Unlock()
	if err != nil {
		if n.dropConn(msg.To, c) {
			return ErrClosed
		}
		n.reg.CountError(ErrDropped)
		return fmt.Errorf("transport: write: %w", err)
	}
	n.mSent.Inc()
	n.mSentB.Add(int64(body))
	return nil
}

// conn returns a cached or fresh outbound connection.
func (n *TCPNode) conn(to PeerID) (*tcpConn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrClosed
	}
	if c, ok := n.conns[to]; ok {
		n.mu.Unlock()
		return c, nil
	}
	n.mu.Unlock()
	nc, err := net.DialTimeout("tcp", string(to), writeTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", to, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		nc.Close()
		return nil, ErrClosed
	}
	if existing, ok := n.conns[to]; ok {
		nc.Close()
		return existing, nil
	}
	c := &tcpConn{Conn: nc}
	n.conns[to] = c
	return c, nil
}

// dropConn closes c and forgets it unless a newer connection to the
// same peer has replaced it. It reports whether the node is closed.
func (n *TCPNode) dropConn(to PeerID, c *tcpConn) (closed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.conns[to] == c {
		delete(n.conns, to)
	}
	c.Close()
	return n.closed
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			conn.Close()
			return
		}
		n.inbound[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.readLoop(conn)
	}
}

func (n *TCPNode) readLoop(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.inbound, conn)
		n.mu.Unlock()
	}()
	n.readFrames(bufio.NewReader(conn))
}

// readFrames dispatches every frame on r to the handler until the
// stream ends or a length prefix exceeds maxFrame. A body that is not
// a well-formed envelope is skipped: its length prefix already
// delimited it, so the stream stays in sync.
func (n *TCPNode) readFrames(r io.Reader) {
	var lenbuf [lenPrefix]byte
	names := make(interner)
	for {
		if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
			return
		}
		size := binary.BigEndian.Uint32(lenbuf[:])
		if size > maxFrame {
			return
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		msg, err := decodeEnvelope(body, names)
		if err != nil {
			continue
		}
		n.mReceived.Inc()
		n.mRecvB.Add(int64(size))
		if h := n.handler.Load(); h != nil {
			(*h)(msg)
		}
	}
}

// Close implements Endpoint: stops accepting, closes all connections,
// and waits for reader goroutines to exit.
func (n *TCPNode) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	for id, c := range n.conns {
		c.Close()
		delete(n.conns, id)
	}
	for c := range n.inbound {
		c.Close()
	}
	n.mu.Unlock()
	err := n.ln.Close()
	n.wg.Wait()
	return err
}

// --- envelope ---

// appendEnvelope appends msg's frame body:
//
//	uvarint len | From | uvarint len | To | uvarint len | Type |
//	uvarint TraceID | uvarint SpanID | Payload
//
// The payload is already a binary codec frame, so it goes on the
// wire as is; it runs to the end of the body and needs no length.
func appendEnvelope(dst []byte, msg *Message) []byte {
	dst = appendField(dst, string(msg.From))
	dst = appendField(dst, string(msg.To))
	dst = appendField(dst, msg.Type)
	dst = binary.AppendUvarint(dst, msg.TraceID)
	dst = binary.AppendUvarint(dst, msg.SpanID)
	return append(dst, msg.Payload...)
}

func appendField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

var errEnvelope = errors.New("transport: malformed frame envelope")

// decodeEnvelope parses a frame body written by appendEnvelope. The
// returned Payload aliases body. Only the canonical encoding is
// accepted, so every body that decodes re-encodes to the same bytes.
func decodeEnvelope(body []byte, names interner) (Message, error) {
	var msg Message
	from, rest, ok := readField(body)
	if !ok {
		return msg, errEnvelope
	}
	to, rest, ok := readField(rest)
	if !ok {
		return msg, errEnvelope
	}
	typ, rest, ok := readField(rest)
	if !ok {
		return msg, errEnvelope
	}
	traceID, k := uvarint(rest)
	if k == 0 {
		return msg, errEnvelope
	}
	rest = rest[k:]
	spanID, k := uvarint(rest)
	if k == 0 {
		return msg, errEnvelope
	}
	rest = rest[k:]
	msg.From = PeerID(names.str(from))
	msg.To = PeerID(names.str(to))
	msg.Type = names.str(typ)
	msg.TraceID, msg.SpanID = traceID, spanID
	msg.Payload = rest[:len(rest):len(rest)]
	return msg, nil
}

func readField(b []byte) (field, rest []byte, ok bool) {
	n, k := uvarint(b)
	if k == 0 || n > uint64(len(b)-k) {
		return nil, nil, false
	}
	end := k + int(n)
	return b[k:end], b[end:], true
}

// uvarint decodes a minimally encoded uvarint, returning its length
// (0 for a truncated, overflowing or overlong encoding).
func uvarint(b []byte) (uint64, int) {
	v, k := binary.Uvarint(b)
	if k <= 0 || (k > 1 && b[k-1] == 0) {
		return 0, 0
	}
	return v, k
}

// interner shares the strings one connection repeats in every frame —
// its peer IDs and a handful of message types — so steady-state
// decoding allocates only the frame itself. It is bounded in entries
// and entry length, so a hostile peer cannot grow it.
type interner map[string]string

const (
	maxInterned    = 64
	maxInternedLen = 128
)

func (in interner) str(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in) < maxInterned && len(b) <= maxInternedLen {
		in[s] = s
	}
	return s
}
