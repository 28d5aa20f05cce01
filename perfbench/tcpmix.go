package main

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/stylegen"
)

// tcpWorkload is the deployed path: a fleet of DHT servents over
// loopback TCP, driven through their web interface by a closed loop
// of two clients, each on one keep-alive connection with no think
// time.
type tcpWorkload struct {
	nodes, comms, perComm int
}

const tcpClients = 2

// httpOp is one planned request and what its response must show.
type httpOp struct {
	id     int64
	class  opClass
	server int
	method string
	target string
	form   url.Values
	status int
	// want is the ground truth of a search or discover.
	want map[index.DocID]bool
}

func (w *tcpWorkload) pass(pc passConfig) (res *passResult, err error) {
	seed, ops, warmup, st, dir := pc.seed, pc.ops, pc.warmup, pc.spans, pc.dir
	res = &passResult{warmup: warmup}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
			err = rerr
		}
	}()
	t0 := time.Now()
	f, err := newFleet(w.nodes, dir, st)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	plans, comms, t, err := w.seed(f, seed)
	if err != nil {
		return nil, err
	}
	if err := f.quiesce(30 * time.Second); err != nil {
		return nil, err
	}
	res.setup = time.Since(t0)
	if err := w.checkSeeded(f, comms, t); err != nil {
		return nil, err
	}

	peers := make([]string, len(f.nodes))
	for i, n := range f.nodes {
		peers[i] = string(n.tcp.ID())
	}
	units := w.plan(rand.New(rand.NewSource(seed)), plans, comms, t, peers, warmup+ops)
	warm := runClients(f.addr, units[:warmup], st)
	res.warmupFailed, res.firstErr = warm.failed, warm.firstErr
	for _, u := range units[warmup:] {
		res.planned += len(u)
	}

	settle()
	var stop func()
	if pc.profile != "" {
		if stop, err = startProfile(pc.profile); err != nil {
			return nil, err
		}
	}
	before := f.reg.Snapshot()
	payload0 := f.payload.Load()
	window0 := st.now()
	start := readResources()
	cr := runClients(f.addr, units[warmup:], st)
	res.ph = since(start)
	window1 := st.now()
	if stop != nil {
		stop()
	}
	d := f.reg.Snapshot().Delta(before)
	res.delta = d
	res.attempted, res.failed = cr.attempted, cr.failed
	res.lat, res.recall = cr.lat, cr.recall
	res.msgs = d.Counter("transport.tcp_msgs_sent")
	res.bytes = d.Counter("transport.tcp_bytes_sent")
	if res.firstErr == nil {
		res.firstErr = cr.firstErr
	}
	res.heapMiB = liveHeapMiB()

	publishes := float64(len(cr.lat[opPublish]) + len(cr.lat[opRetrieve]))
	searches := float64(len(cr.lat[opSearch]) + len(cr.lat[opDiscover]))
	res.localHits = len(cr.lat[opRetrieve]) - int(d.Label("p2p.fetches", "dht"))
	payload := float64(f.payload.Load() - payload0)
	res.layer = map[string]float64{
		"transport.payload_bytes_per_msg": div(payload, float64(res.msgs)),
		"transport.frame_overhead_ratio":  div(float64(res.bytes), payload),
		"dht.lookups_per_search":          div(float64(d.Counter("dht.lookups")), searches),
		"dht.rounds_per_lookup":           div(float64(d.Counter("dht.lookup_rounds")), float64(d.Counter("dht.lookups"))),
		"dht.contacted_per_lookup":        div(float64(d.Counter("dht.peers_contacted")), float64(d.Counter("dht.lookups"))),
		"dht.join_ms_per_peer":            div(ms(f.joinWall), float64(w.nodes-1)),
		"p2p.results_per_search":          div(float64(d.Label("p2p.search_results", "dht")), float64(d.Label("p2p.searches", "dht"))),
		"index.wal_appends_per_publish":   div(float64(d.Counter("index.wal_appends")), publishes),
		"index.wal_bytes_per_publish":     div(float64(d.Counter("index.wal_bytes")), publishes),
		"tcp.retrieve_local_hits":         float64(res.localHits),
		"dht.store_fanout_per_publish":    div(float64(d.Counter("dht.store_fanout")), publishes),
	}
	if st != nil {
		spanLayers(st.snapshot(), window0, window1, res)
	}
	return res, nil
}

// seed creates the communities round-robin over the fleet, has every
// node join every community, and publishes the seeded corpus
// round-robin. It returns the ground truth of what was published.
func (w *tcpWorkload) seed(f *fleet, seed int64) ([]commPlan, []*core.Community, *truth, error) {
	t := newTruth()
	plans := planCommunities(w.comms, w.perComm, 64)
	comms := make([]*core.Community, len(plans))
	for i, pl := range plans {
		creator := i % len(f.nodes)
		comm, err := f.nodes[creator].sv.CreateCommunity(pl.spec)
		if err != nil {
			return nil, nil, nil, err
		}
		doc, err := communityDoc(f.nodes[creator].sv, pl.spec.Name)
		if err != nil {
			return nil, nil, nil, err
		}
		t.add(doc, creator)
		comms[i] = comm
		for j, n := range f.nodes {
			if j != creator {
				if err := n.sv.AdoptCommunity(comm); err != nil {
					return nil, nil, nil, err
				}
			}
		}
	}
	k := 0
	for ci, pl := range plans {
		for _, obj := range pl.seeded {
			holder := k % len(f.nodes)
			k++
			sv := f.nodes[holder].sv
			id, err := sv.Publish(comms[ci].ID, obj.Doc.Clone(), nil)
			if err != nil {
				return nil, nil, nil, err
			}
			doc, err := sv.Store().Get(id)
			if err != nil {
				return nil, nil, nil, err
			}
			t.add(doc, holder)
		}
	}
	return plans, comms, t, nil
}

// checkSeeded is the quiet-fleet correctness gate: a match-all search
// of every community, from a node that did not create it, must find
// every seeded object.
func (w *tcpWorkload) checkSeeded(f *fleet, comms []*core.Community, t *truth) error {
	for i, comm := range comms {
		from := f.nodes[(i+1)%len(f.nodes)].sv
		rs, err := from.Search(comm.ID, query.MatchAll{}, p2p.SearchOptions{})
		if err != nil {
			return fmt.Errorf("seeded recall check: %w", err)
		}
		want := t.expected(comm.ID, query.MatchAll{}, t.now)
		if r := recall(want, resultIDs(rs)); r < 1 {
			return fmt.Errorf("%w: community %s recall %.3f on the quiet fleet", errGate, comm.Name, r)
		}
	}
	return nil
}

// plan draws n units of work. Every choice is made here, from the
// seed, so the state a run builds up is the same whichever client
// runs a unit first: a retrieve always fetches a seeded object from
// its original publisher onto a node that neither holds it nor is
// planned to fetch it already.
func (w *tcpWorkload) plan(rng *rand.Rand, plans []commPlan, comms []*core.Community, t *truth, peers []string, n int) [][]httpOp {
	var (
		units   [][]httpOp
		nextID  int64
		fresh   = make([]int, len(plans))
		fetched = make(map[string]bool)
	)
	op := func(o httpOp) httpOp {
		nextID++
		o.id = nextID
		return o
	}
	for len(units) < n {
		server := rng.Intn(w.nodes)
		ci := rng.Intn(len(comms))
		comm := comms[ci]
		r := rng.Float64()
		switch {
		case r < opMix[opSearch]:
			vals := t.searchValues(rng, comm.ID, plans[ci].corpus)
			want := t.expected(comm.ID, stylegen.BuildFilter(vals), t.now)
			vals.Set("community", comm.ID)
			units = append(units, []httpOp{op(httpOp{class: opSearch, server: server, method: http.MethodGet,
				target: "/search?" + vals.Encode(), status: http.StatusOK, want: want})})
		case r < opMix[opSearch]+opMix[opDiscover]:
			name := plans[ci].spec.Name
			f := &query.Assertion{Attr: "name", Op: query.OpContains, Value: name}
			units = append(units, []httpOp{op(httpOp{class: opDiscover, server: server, method: http.MethodGet,
				target: "/discover?" + url.Values{"name": {name}}.Encode(), status: http.StatusOK,
				want: t.expected(core.RootCommunityID, f, t.now)})})
		case r < opMix[opSearch]+opMix[opDiscover]+opMix[opPublish]:
			pl := plans[ci]
			obj := pl.fresh[fresh[ci]%len(pl.fresh)]
			fresh[ci]++
			units = append(units, []httpOp{op(httpOp{class: opPublish, server: server, method: http.MethodPost,
				target: "/create?" + url.Values{"community": {comm.ID}}.Encode(), form: formValues(obj.Doc),
				status: http.StatusSeeOther})})
		default:
			ids := t.byComm[comm.ID]
			id := ids[rng.Intn(len(ids))]
			provider := t.docs[id].holders[0].peer
			key := string(id) + "@" + strconv.Itoa(server)
			if fetched[key] || t.docs[id].holds(server) {
				continue // redraw: the node must lack the object
			}
			fetched[key] = true
			from := peers[provider]
			units = append(units, []httpOp{
				op(httpOp{class: opRetrieve, server: server, method: http.MethodGet,
					target: "/retrieve?" + url.Values{"doc": {string(id)}, "from": {from}}.Encode(), status: http.StatusSeeOther}),
				op(httpOp{class: opView, server: server, method: http.MethodGet,
					target: "/view?" + url.Values{"doc": {string(id)}}.Encode(), status: http.StatusOK}),
			})
		}
	}
	return units
}

// clientResult is what the clients measured over one list of units.
type clientResult struct {
	lat       [numClasses][]float64
	recall    []float64
	attempted int
	failed    int
	firstErr  error
}

func (r *clientResult) merge(o *clientResult) {
	for c := range r.lat {
		r.lat[c] = append(r.lat[c], o.lat[c]...)
	}
	r.recall = append(r.recall, o.recall...)
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// runClients deals the units out to the clients in turn and runs them
// as a closed loop: each client sends its next request as soon as the
// previous response is read. It returns once both clients are done.
func runClients(addr string, units [][]httpOp, st *spanStore) *clientResult {
	var (
		wg      sync.WaitGroup
		results [tcpClients]clientResult
	)
	for k := 0; k < tcpClients; k++ {
		var mine []httpOp
		for i := k; i < len(units); i += tcpClients {
			mine = append(mine, units[i]...)
		}
		wg.Add(1)
		go func(res *clientResult) {
			defer wg.Done()
			// The client's goroutines, and the HTTP transport's that
			// it starts, are the load generator's.
			pprof.SetGoroutineLabels(loadgenCtx)
			runClient(addr, mine, st, res)
		}(&results[k])
	}
	wg.Wait()
	out := &clientResult{}
	for k := range results {
		out.merge(&results[k])
	}
	return out
}

var (
	searchHit   = regexp.MustCompile(`/retrieve\?doc=([^&"]+)&`)
	discoverHit = regexp.MustCompile(`/join\?doc=([^&"]+)&`)
)

// runClient sends ops in order over one keep-alive connection,
// without following redirects, and checks every response.
func runClient(addr string, ops []httpOp, st *spanStore, res *clientResult) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	defer tr.CloseIdleConnections()
	client := &http.Client{
		Transport:     tr,
		Timeout:       30 * time.Second,
		CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse },
	}
	for _, op := range ops {
		res.attempted++
		sid := st.begin("client."+op.class.String(), op.id, 0)
		t0 := time.Now()
		got, err := do(client, addr, op, sid)
		lat := time.Since(t0)
		st.end(sid)
		if err != nil {
			res.failed++
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%s on %s: %w", op.class, hostName(op.server), err)
			}
			continue
		}
		res.lat[op.class] = append(res.lat[op.class], ms(lat))
		if op.want != nil {
			res.recall = append(res.recall, recall(op.want, got))
		}
	}
}

// do sends one request and checks its response; for a search or a
// discover it returns the object IDs the page lists.
func do(client *http.Client, addr string, op httpOp, span int64) ([]index.DocID, error) {
	var body io.Reader
	if op.form != nil {
		body = strings.NewReader(op.form.Encode())
	}
	req, err := http.NewRequest(op.method, "http://"+addr+op.target, body)
	if err != nil {
		return nil, err
	}
	req.Host = hostName(op.server)
	if op.form != nil {
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(span, 10))
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != op.status {
		return nil, fmt.Errorf("status %d, want %d: %.200s", resp.StatusCode, op.status, page)
	}
	switch op.class {
	case opSearch:
		return pageIDs(searchHit, page), nil
	case opDiscover:
		return pageIDs(discoverHit, page), nil
	case opPublish, opRetrieve:
		if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/view?doc=") {
			return nil, fmt.Errorf("redirect to %q, want a view", loc)
		}
	case opView:
		if len(page) == 0 {
			return nil, fmt.Errorf("empty view")
		}
	}
	return nil, nil
}

func pageIDs(re *regexp.Regexp, page []byte) []index.DocID {
	var ids []index.DocID
	for _, m := range re.FindAllSubmatch(page, -1) {
		ids = append(ids, index.DocID(m[1]))
	}
	return ids
}

// spanLayers derives the span-based per-layer metrics of a traced
// pass from the spans that started inside the timed window.
func spanLayers(spans []span, from, to time.Duration, res *passResult) {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = sp
	}
	var sends, searches, overhead []float64
	var handled time.Duration
	coreSelf := map[string][]float64{}
	for _, sp := range spans {
		if sp.Start < from || sp.Start > to {
			continue
		}
		switch {
		case sp.Name == "transport.send":
			sends = append(sends, float64(sp.dur())/float64(time.Microsecond))
		case sp.Name == "transport.handle":
			handled += sp.dur()
		case sp.Name == "p2p.search":
			searches = append(searches, ms(sp.dur()))
		case strings.HasPrefix(sp.Name, "http.serve/"):
			path := strings.TrimPrefix(sp.Name, "http.serve/")
			coreSelf[path] = append(coreSelf[path], ms(self[sp.ID]))
			if parent, ok := byID[sp.Parent]; ok {
				overhead = append(overhead, ms(parent.dur()-sp.dur()))
			}
		}
	}
	ops := float64(res.attempted)
	res.layer["transport.send_us_p50"] = quantile(sends, 0.5)
	res.layer["transport.send_us_p99"] = quantile(sends, tailQuantile(len(sends)))
	res.layer["transport.handler_ms_per_op"] = div(ms(handled), ops)
	res.layer["dht.search_ms_p50"] = quantile(searches, 0.5)
	res.layer["http.overhead_ms_p50"] = quantile(overhead, 0.5)
	for path, class := range map[string]string{"search": "search", "discover": "discover",
		"retrieve": "retrieve", "view": "view", "create": "create"} {
		res.layer["core.self_ms."+class] = quantile(coreSelf[path], 0.5)
	}
}
