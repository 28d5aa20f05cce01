package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestTCPStalledPeerDoesNotBlockOthers: a peer that accepts a
// connection and never reads must cost the sender only the traffic
// bound for that peer. Once the socket buffers toward it are full, a
// Send to a healthy peer still goes out at once, the stalled Send
// fails within the write deadline and counts as a drop, and the
// stalled connection is discarded (its stream may hold a partial
// frame) so the next Send dials afresh.
func TestTCPStalledPeerDoesNotBlockOthers(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	reg := metrics.NewRegistry()
	a.SetMetrics(reg)
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	got := make(chan Message, 1)
	b.SetHandler(func(m Message) { got <- m })

	stall, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 8)
	go func() {
		for {
			c, err := stall.Accept()
			if err != nil {
				return
			}
			accepted <- c
		}
	}()
	// Registered last so it runs first: releasing the stalled peer
	// unblocks any write still stuck on it before the nodes close.
	t.Cleanup(func() {
		stall.Close()
		for {
			select {
			case c := <-accepted:
				c.Close()
			default:
				return
			}
		}
	})
	stalledID := PeerID(stall.Addr().String())

	type result struct {
		err     error
		blocked time.Duration
	}
	var sent atomic.Int64
	stalled := make(chan result, 1)
	go func() {
		payload := make([]byte, 256<<10)
		for {
			start := time.Now()
			if err := a.Send(Message{To: stalledID, Type: "fill", Payload: payload}); err != nil {
				stalled <- result{err, time.Since(start)}
				return
			}
			sent.Add(1)
		}
	}()

	// Wait until a Send toward the stalled peer has made no progress
	// for a while: its socket buffers are full.
	last, since := int64(-1), time.Now()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if time.Now().After(deadline) {
			t.Fatalf("sends to a peer that never reads did not block (%d sent)", sent.Load())
		}
		if n := sent.Load(); n != last {
			last, since = n, time.Now()
		} else if n > 0 && time.Since(since) > 100*time.Millisecond {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	healthy := make(chan error, 1)
	start := time.Now()
	go func() { healthy <- a.Send(Message{To: b.ID(), Type: "ping"}) }()
	select {
	case m := <-got:
		if m.Type != "ping" || m.From != a.ID() {
			t.Fatalf("healthy peer got %+v", m)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("send to a healthy peer blocked behind a stalled one")
	}
	if err := <-healthy; err != nil {
		t.Fatalf("send to healthy peer: %v", err)
	}
	t.Logf("healthy send delivered in %v", time.Since(start))

	select {
	case r := <-stalled:
		if r.blocked > writeTimeout+time.Second {
			t.Errorf("stalled send failed after %v, write deadline is %v", r.blocked, writeTimeout)
		}
		t.Logf("stalled send failed after %v: %v", r.blocked, r.err)
	case <-time.After(writeTimeout + 2*time.Second):
		t.Fatalf("stalled send still blocked after %v", writeTimeout+2*time.Second)
	}
	if n := reg.Errors().Values()["transport.dropped"]; n < 1 {
		t.Errorf("errors{transport.dropped} = %d, want >= 1", n)
	}

	// The stalled connection is gone: the next Send dials a new one.
	if err := a.Send(Message{To: stalledID, Type: "after"}); err != nil {
		t.Fatalf("send after drop: %v", err)
	}
	first := 0
	for timeout := time.After(2 * time.Second); ; {
		select {
		case c := <-accepted:
			defer c.Close()
			if first++; first == 2 {
				return
			}
		case <-timeout:
			t.Fatalf("stalled connection was not replaced (%d accepted)", first)
		}
	}
}

// TestTCPConcurrentSends: goroutines sending on one connection at
// once must not interleave their frames. Payloads of mixed sizes,
// some larger than one socket write, each arrive whole.
func TestTCPConcurrentSends(t *testing.T) {
	a, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	const senders, each = 8, 50
	payload := func(s, i int) []byte {
		return bytes.Repeat([]byte{byte(s), byte(i)}, 1+(s*each+i)*97%(96<<10))
	}
	var bad atomic.Int64
	done := make(chan struct{})
	var count atomic.Int64
	b.SetHandler(func(m Message) {
		s, i := int(m.Payload[0]), int(m.Payload[1])
		if !bytes.Equal(m.Payload, payload(s, i)) || m.Type != "x" {
			bad.Add(1)
		}
		if count.Add(1) == senders*each {
			close(done)
		}
	})
	errs := make(chan error, senders)
	for s := 0; s < senders; s++ {
		go func(s int) {
			for i := 0; i < each; i++ {
				if err := a.Send(Message{To: b.ID(), Type: "x", Payload: payload(s, i)}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(s)
	}
	for s := 0; s < senders; s++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d/%d frames arrived", count.Load(), senders*each)
	}
	if n := bad.Load(); n > 0 {
		t.Fatalf("%d frames arrived corrupted", n)
	}
}

// frameOf prefixes a frame body with its length, as Send does.
func frameOf(body []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// TestTCPEnvelopeLayout pins the envelope byte for byte.
func TestTCPEnvelopeLayout(t *testing.T) {
	msg := Message{From: "a", To: "bc", Type: "q", TraceID: 300, Payload: []byte{1, 2}}
	want := []byte{1, 'a', 2, 'b', 'c', 1, 'q', 0xac, 0x02, 0, 1, 2}
	got := appendEnvelope(nil, &msg)
	if !bytes.Equal(got, want) {
		t.Fatalf("envelope = % x, want % x", got, want)
	}
	back, err := decodeEnvelope(got, make(interner))
	if err != nil || !reflect.DeepEqual(back, msg) {
		t.Fatalf("decode = %+v, %v", back, err)
	}
	// The payload is a view of the frame, not a copy.
	if &back.Payload[0] != &got[len(got)-2] {
		t.Error("decoded payload was copied out of the frame")
	}
	// An overlong varint would re-encode differently, so it is rejected.
	if _, err := decodeEnvelope([]byte{0x81, 0x00, 'a', 0, 0, 0, 0}, make(interner)); err == nil {
		t.Error("overlong length varint accepted")
	}
}

// TestTCPReceiveAllocs pins the inbound path: one allocation per
// frame (the frame buffer its payload aliases), with peer IDs and
// message types interned per connection.
func TestTCPReceiveAllocs(t *testing.T) {
	const frames = 200
	var stream []byte
	for i := 0; i < frames; i++ {
		typ := []string{"query", "query-hit", "fetch"}[i%3]
		stream = append(stream, frameOf(appendEnvelope(nil, &Message{From: "127.0.0.1:7001", To: "127.0.0.1:7002", Type: typ, Payload: []byte("filter=(k=v)")}))...)
	}
	n := &TCPNode{}
	n.SetMetrics(metrics.Discard())
	delivered := 0
	n.SetHandler(func(Message) { delivered++ })
	r := bytes.NewReader(stream)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(stream)
		n.readFrames(r)
	})
	if delivered != 21*frames {
		t.Fatalf("delivered %d frames, want %d", delivered, 21*frames)
	}
	if perFrame := allocs / frames; perFrame > 1.1 {
		t.Fatalf("receive allocs/frame = %.2f, want <= 1.1", perFrame)
	}
}

// TestTCPMalformedFrameKeepsConnection: over a real socket, a body
// that is not an envelope is skipped and the next frame still
// arrives; a length prefix over maxFrame closes the connection.
func TestTCPMalformedFrameKeepsConnection(t *testing.T) {
	n, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	got := make(chan Message, 4)
	n.SetHandler(func(m Message) { got <- m })
	c, err := net.Dial("tcp", string(n.ID()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	good := appendEnvelope(nil, &Message{From: "x", To: n.ID(), Type: "good"})
	stream := append(frameOf([]byte{0xff, 0xff, 0xff}), frameOf(good)...)
	if _, err := c.Write(stream); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-got:
		if m.Type != "good" {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("frame after a malformed one was not delivered")
	}
	if _, err := c.Write(binary.BigEndian.AppendUint32(nil, maxFrame+1)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("oversized length prefix: read = %v, want EOF (connection closed)", err)
	}
}

// FuzzTCPEnvelope feeds arbitrary frame bodies to the decoder and the
// read loop. Decoding never panics; any body that decodes re-encodes
// to the same bytes; a body that does not decode is skipped without
// losing the connection; and a length prefix over maxFrame ends the
// stream before anything after it is read.
func FuzzTCPEnvelope(f *testing.F) {
	for _, m := range []Message{
		{From: "127.0.0.1:7001", To: "127.0.0.1:7002", Type: "query", Payload: []byte("filter=(k=v)")},
		{From: "a", To: "b", Type: "dht-ping", TraceID: 1 << 63, SpanID: 300},
		{},
	} {
		f.Add(appendEnvelope(nil, &m))
	}
	f.Add([]byte{})
	good := Message{From: "a", To: "b", Type: "good", Payload: []byte("ok")}
	goodFrame := frameOf(appendEnvelope(nil, &good))
	f.Fuzz(func(t *testing.T, body []byte) {
		msg, err := decodeEnvelope(body, make(interner))
		if err == nil {
			if re := appendEnvelope(nil, &msg); !bytes.Equal(re, body) {
				t.Fatalf("re-encoded % x, decoded from % x", re, body)
			}
		}

		n := &TCPNode{}
		n.SetMetrics(metrics.Discard())
		var got []Message
		n.SetHandler(func(m Message) { got = append(got, m) })
		stream := append(frameOf(body), goodFrame...)
		n.readFrames(bytes.NewReader(stream))
		want := []Message{good}
		if err == nil {
			want = []Message{msg, good}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("delivered %+v, want %+v", got, want)
		}

		got = nil
		over := binary.BigEndian.AppendUint32(nil, maxFrame+1+uint32(len(body)))
		n.readFrames(bytes.NewReader(append(over, stream...)))
		if len(got) != 0 {
			t.Fatalf("frames after an oversized length prefix were read: %+v", got)
		}
	})
}
