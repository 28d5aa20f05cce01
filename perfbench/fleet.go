package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dht"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/servent"
	"repro/internal/transport"
)

// fleet is an in-process deployment of DHT servents, each shaped like
// `up2pd -mode dht -state <dir> -wal -fsync os`: its own loopback TCP
// transport, WAL-backed store, DHT node, core servent and web handler.
// The web handlers share one loopback HTTP listener and are picked by
// the request's Host, so a client needs a single connection for all
// of them.
type fleet struct {
	reg   *metrics.Registry
	nodes []*fleetNode
	srv   *http.Server
	addr  string
	// payload counts the bytes the traced Endpoint wrappers were
	// handed, before framing.
	payload atomic.Int64
	// joinWall is the time spent in dht.Node.Bootstrap.
	joinWall time.Duration
	served   chan struct{}
}

type fleetNode struct {
	tcp   *transport.TCPNode
	dht   *dht.Node
	sv    *core.Servent
	store *index.Store
}

func hostName(i int) string { return fmt.Sprintf("s%02d", i) }

// newFleet builds n servents under dir. Every node joins the DHT
// through node 0. With st set, the traced run's wrappers go around
// each layer: the Endpoint before it reaches dht.NewNode, the
// p2p.Network before core.NewServent, and the web handler.
func newFleet(n int, dir string, st *spanStore) (*fleet, error) {
	f := &fleet{reg: metrics.NewRegistry()}
	handlers := make(map[string]http.Handler, n)
	for i := 0; i < n; i++ {
		node, err := f.addNode(i, dir, st)
		if err != nil {
			f.close()
			return nil, err
		}
		var h http.Handler = servent.New(node.sv)
		if st != nil {
			h = &tracedHandler{next: h, st: st}
		}
		handlers[hostName(i)] = h
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.addr = ln.Addr().String()
	f.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h, ok := handlers[r.Host]
		if !ok {
			http.NotFound(w, r)
			return
		}
		h.ServeHTTP(w, r)
	})}
	f.served = make(chan struct{})
	go func() {
		defer close(f.served)
		_ = f.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return f, nil
}

func (f *fleet) addNode(i int, dir string, st *spanStore) (*fleetNode, error) {
	tcp, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tcp.SetMetrics(f.reg)
	store, err := index.OpenStore(
		index.WithMetrics(f.reg),
		index.WithWAL(filepath.Join(dir, hostName(i), "wal")),
		index.WithWALFsync(index.FsyncOS),
	)
	if err != nil {
		tcp.Close()
		return nil, err
	}
	var ep transport.Endpoint = tcp
	if st != nil {
		ep = &tracedEndpoint{Endpoint: tcp, st: st, payloadBytes: &f.payload}
	}
	d := dht.NewNode(ep, store, dht.Config{K: 8, Alpha: 3})
	d.SetMetrics(f.reg)
	node := &fleetNode{tcp: tcp, dht: d, store: store}
	f.nodes = append(f.nodes, node)
	if i > 0 {
		t0 := time.Now()
		d.Bootstrap(f.nodes[0].tcp.ID())
		f.joinWall += time.Since(t0)
	}
	var netw p2p.Network = d
	if st != nil {
		netw = &tracedNetwork{Network: d, st: st}
	}
	node.sv, err = core.NewServent(netw, store)
	if err != nil {
		return nil, err
	}
	return node, nil
}

// quiesce waits until every frame sent has been received and handled
// and the counts hold still: STOREs are fire-and-forget, so a publish
// returns before its replicas land.
func (f *fleet) quiesce(timeout time.Duration) error {
	sent, recv := f.reg.Counter("transport.tcp_msgs_sent"), f.reg.Counter("transport.tcp_msgs_received")
	deadline := time.Now().Add(timeout)
	last, still := int64(-1), 0
	for still < 3 {
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not quiet after %v: %d frames sent, %d received", timeout, sent.Value(), recv.Value())
		}
		time.Sleep(2 * time.Millisecond)
		s, r := sent.Value(), recv.Value()
		if s == r && s == last {
			still++
		} else {
			still = 0
		}
		last = s
	}
	return nil
}

// close stops the web listener and every node, and waits for them.
func (f *fleet) close() error {
	var errs []error
	if f.srv != nil {
		errs = append(errs, f.srv.Close())
		<-f.served
	}
	for _, n := range f.nodes {
		if n.sv != nil {
			errs = append(errs, n.sv.Close())
		} else {
			errs = append(errs, n.dht.Close())
		}
		errs = append(errs, n.store.Close())
	}
	return errors.Join(errs...)
}
