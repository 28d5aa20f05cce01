package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dsim"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stylegen"
)

// simWorkload is a simulated overlay on a virtual clock: a seeded
// cluster, a corpus spread over communities, and a driver that issues
// a fixed number of user operations as a Poisson stream, with
// optional churn and periodic DHT maintenance alongside.
type simWorkload struct {
	proto   sim.Protocol
	peers   int
	comms   int
	perComm int
	// joinPer is how many communities each initial peer joins.
	joinPer int
	// churn makes every publish the first act of a newly arrived peer,
	// which joins one community and publishes one fresh object into
	// it, and departs peers at the same mean rate as they arrive.
	churn        bool
	refreshEvery time.Duration
}

const (
	simLatency = 20 * time.Millisecond
	simJitter  = 10 * time.Millisecond
	// simOpsPerVirtualSecond is the operation stream's mean rate.
	simOpsPerVirtualSecond = 10
)

// simPass is one seeded build and run of a simWorkload.
type simPass struct {
	w     *simWorkload
	clk   *dsim.VirtualClock
	c     *sim.Cluster
	plans []commPlan
	comms []*core.Community
	// members lists, per community, the peers that joined it.
	members [][]int
	fresh   []int
	t       *truth
	// checks are the timed searches and discovers, scored against the
	// ground truth once the timed phase is over.
	checks []recallCheck
	rng    *rand.Rand
	st     *spanStore
	parent int64
	nextOp int64
	res    *passResult
	err    error

	timing bool
	done   bool
	// profile, when set, is where the timed phase's CPU profile goes.
	profile     string
	stopProfile func()

	msgs, bytes, lookups, rounds, contacted, fanout *metrics.Counter

	start  resources
	before *metrics.Snapshot
	acc    simLayer
}

// recallCheck is one search's question, the truth clock's reading
// when it was asked, and its answer.
type recallCheck struct {
	comm string
	f    query.Filter
	at   int64
	got  []p2p.Result
}

// simLayer accumulates the per-layer counts of a pass's timed phase.
type simLayer struct {
	searches, searchMsgs, searchResults int64
	lookups, rounds, contacted          int64
	// publishes and storeFanout count publish and retrieve operations
	// and the STOREs they sent, excluding refresh republication.
	publishes, storeFanout   int64
	steps                    int64
	refreshWall              time.Duration
	refreshed, refreshRounds int
	joinWall                 time.Duration
	joins                    int
	vsearch                  []float64
}

func (w *simWorkload) pass(pc passConfig) (*passResult, error) {
	res := &passResult{warmup: pc.warmup}
	p := &simPass{w: w, st: pc.spans, res: res, t: newTruth(), rng: rand.New(rand.NewSource(pc.seed)), profile: pc.profile}
	if err := p.setup(pc.seed); err != nil {
		return nil, err
	}
	p.schedule(pc.ops, pc.warmup)
	for {
		id := p.st.begin("dsim.step", 0, 0)
		p.parent = id
		more := p.clk.Step()
		p.st.end(id)
		p.parent = 0
		if p.timing {
			p.acc.steps++
		}
		if !more || p.err != nil {
			break
		}
	}
	if p.stopProfile != nil {
		p.stopProfile()
	}
	if p.err != nil {
		return nil, p.err
	}
	if !p.done {
		return nil, fmt.Errorf("%s: event queue drained before the operation stream ended", w.proto)
	}
	res.heapMiB = liveHeapMiB()
	res.traceHash = p.c.Net.TraceHash()
	res.layer = p.layerMetrics()
	return res, nil
}

// setup builds the cluster, creates and joins the communities, and
// seeds the corpus; its wall time is the pass's set-up time.
func (p *simPass) setup(seed int64) error {
	w := p.w
	t0 := time.Now()
	p.clk = dsim.NewVirtualClock()
	id := p.st.begin("sim.NewCluster", 0, 0)
	c, err := sim.NewCluster(sim.Config{
		Peers:               w.peers,
		Protocol:            w.proto,
		Degree:              4,
		Seed:                seed,
		DHTK:                16,
		DHTAlpha:            3,
		DHTMaxRecordsPerKey: 1024,
		Latency:             simLatency,
		Jitter:              simJitter,
		Clock:               p.clk,
		Trace:               true,
	})
	p.st.end(id)
	if err != nil {
		return err
	}
	p.acc.joinWall += time.Since(t0)
	p.acc.joins += w.peers
	p.c = c
	reg := c.Registry()
	p.msgs, p.bytes = reg.Counter("transport.msgs_delivered"), reg.Counter("transport.bytes_delivered")
	p.lookups, p.rounds, p.contacted = reg.Counter("dht.lookups"), reg.Counter("dht.lookup_rounds"), reg.Counter("dht.peers_contacted")
	p.fanout = reg.Counter("dht.store_fanout")

	p.plans = planCommunities(w.comms, w.perComm, 64)
	p.members = make([][]int, w.comms)
	p.fresh = make([]int, w.comms)
	for i, pl := range p.plans {
		comm, err := c.SeedCommunity(i, pl.spec)
		if err != nil {
			return err
		}
		doc, err := communityDoc(c.Servents[i], pl.spec.Name)
		if err != nil {
			return err
		}
		p.t.add(doc, i)
		p.comms = append(p.comms, comm)
		p.members[i] = append(p.members[i], i)
	}
	for peer := 0; peer < w.peers; peer++ {
		for _, ci := range p.rng.Perm(w.comms)[:w.joinPer] {
			if ci == peer {
				continue // creators joined their own community
			}
			if err := c.Servents[peer].AdoptCommunity(p.comms[ci]); err != nil {
				return err
			}
			p.members[ci] = append(p.members[ci], peer)
		}
	}
	for ci := range p.members {
		slices.Sort(p.members[ci])
	}
	for ci, pl := range p.plans {
		// PublishRoundRobin places object j on the j-th joined peer
		// (mod membership) in index order, which is p.members[ci].
		ids, err := c.PublishRoundRobin(p.comms[ci].ID, pl.seeded)
		if err != nil {
			return err
		}
		for j, id := range ids {
			holder := p.members[ci][j%len(p.members[ci])]
			doc, err := c.Servents[holder].Store().Get(id)
			if err != nil {
				return err
			}
			p.t.add(doc, holder)
		}
	}
	p.res.setup = time.Since(t0)
	return nil
}

// schedule starts the operation stream, churn and maintenance. The
// stream issues warmup untimed units then ops timed ones; a unit is
// one operation, or a retrieve and the view that follows it. Every
// operation the driver decides on during the timed phase is counted
// as planned before it runs. Each event is driver code, labelled as
// the load generator's in the CPU profile; its calls into the
// cluster go through sut.
func (p *simPass) schedule(ops, warmup int) {
	w := p.w
	total := warmup + ops
	issued := 0
	var fire func(time.Time)
	fire = p.event(func() {
		if p.err != nil {
			return
		}
		if issued == warmup {
			p.startTimed()
		}
		issued++
		p.runUnit()
		if issued == total {
			p.endTimed()
			return
		}
		p.clk.Schedule(p.gap(simOpsPerVirtualSecond), fire)
	})
	p.clk.Schedule(p.gap(simOpsPerVirtualSecond), fire)
	if w.churn {
		p.poisson(simOpsPerVirtualSecond*opMix[opPublish], p.departure)
	}
	if w.refreshEvery > 0 && w.proto == sim.DHT {
		var refresh func(time.Time)
		refresh = p.event(func() {
			if p.done || p.err != nil {
				return
			}
			id := p.st.begin("sim.RefreshDHT", 0, p.parent)
			t0 := time.Now()
			var n int
			var err error
			sut(func() { n, err = p.c.RefreshDHT() })
			if p.timing {
				p.acc.refreshWall += time.Since(t0)
				p.acc.refreshed += n
				p.acc.refreshRounds++
			}
			p.st.end(id)
			if err != nil {
				p.err = err
				return
			}
			p.clk.Schedule(w.refreshEvery, refresh)
		})
		p.clk.Schedule(w.refreshEvery, refresh)
	}
}

// event wraps a driver event so that it runs labelled as the load
// generator's.
func (p *simPass) event(fn func()) func(time.Time) {
	return func(time.Time) {
		pprof.SetGoroutineLabels(loadgenCtx)
		defer pprof.SetGoroutineLabels(context.Background())
		fn()
	}
}

func (p *simPass) gap(rate float64) time.Duration {
	return time.Duration(p.rng.ExpFloat64() / rate * float64(time.Second))
}

func (p *simPass) poisson(rate float64, fn func()) {
	var fire func(time.Time)
	fire = p.event(func() {
		if p.done || p.err != nil {
			return
		}
		fn()
		p.clk.Schedule(p.gap(rate), fire)
	})
	p.clk.Schedule(p.gap(rate), fire)
}

func (p *simPass) startTimed() {
	settle()
	if p.profile != "" {
		stop, err := startProfile(p.profile)
		if err != nil {
			p.err = err
			return
		}
		p.stopProfile = stop
	}
	p.timing = true
	p.before = p.c.Metrics()
	p.start = readResources()
}

// endTimed closes the timed phase, then scores its searches against
// the ground truth, outside the measured window.
func (p *simPass) endTimed() {
	p.res.ph = since(p.start)
	if p.stopProfile != nil {
		p.stopProfile()
		p.stopProfile = nil
	}
	p.timing = false
	p.done = true
	d := p.c.Metrics().Delta(p.before)
	p.res.msgs = d.Counter("transport.msgs_delivered")
	p.res.bytes = d.Counter("transport.bytes_delivered")
	p.res.delta = d
	for _, c := range p.checks {
		p.res.recall = append(p.res.recall, recall(p.t.expected(c.comm, c.f, c.at), resultIDs(c.got)))
	}
	p.checks = nil
}

// runUnit issues one draw from the operation mix.
func (p *simPass) runUnit() {
	r := p.rng.Float64()
	if p.timing {
		p.res.planned++
		if r >= opMix[opSearch]+opMix[opDiscover]+opMix[opPublish] {
			p.res.planned++ // the view after the retrieve
		}
	}
	switch {
	case r < opMix[opSearch]:
		p.search()
	case r < opMix[opSearch]+opMix[opDiscover]:
		p.discover()
	case r < opMix[opSearch]+opMix[opDiscover]+opMix[opPublish]:
		if p.w.churn {
			p.arrival()
			return
		}
		ci := p.rng.Intn(len(p.comms))
		p.publish(p.liveMember(ci), ci)
	default:
		p.retrieveAndView()
	}
}

// liveMember draws a live member of community ci; its creator never
// departs, so there always is one.
func (p *simPass) liveMember(ci int) int {
	for {
		if m := p.members[ci][p.rng.Intn(len(p.members[ci]))]; p.c.Alive(m) {
			return m
		}
	}
}

// livePeer draws a live peer of the cluster.
func (p *simPass) livePeer() int {
	for {
		if i := p.rng.Intn(len(p.c.Servents)); p.c.Alive(i) {
			return i
		}
	}
}

// op brackets one timed operation: a span, its wall time, and its
// outcome in the pass's counts. fn is the call into the cluster.
func (p *simPass) op(class opClass, fn func() error) {
	if p.timing && (class == opPublish || class == opRetrieve) {
		f0 := p.fanout.Value()
		defer func() {
			p.acc.publishes++
			p.acc.storeFanout += p.fanout.Value() - f0
		}()
	}
	p.nextOp++
	id := p.st.begin("op."+class.String(), p.nextOp, p.parent)
	var err error
	t0 := time.Now()
	sut(func() { err = fn() })
	lat := time.Since(t0)
	p.st.end(id)
	if !p.timing {
		if err != nil {
			p.res.warmupFailed++
		}
		return
	}
	p.res.attempted++
	if err != nil {
		p.res.failed++
		return
	}
	p.res.lat[class] = append(p.res.lat[class], ms(lat))
}

func (p *simPass) search() {
	ci := p.rng.Intn(len(p.comms))
	from := p.liveMember(ci)
	comm := p.comms[ci].ID
	f := stylegen.BuildFilter(p.t.searchValues(p.rng, comm, p.plans[ci].corpus))
	m0, l0, r0, c0 := p.msgs.Value(), p.lookups.Value(), p.rounds.Value(), p.contacted.Value()
	p.c.Net.ResetPath()
	var rs []p2p.Result
	p.op(opSearch, func() error {
		var err error
		rs, err = p.c.SearchFrom(from, comm, f, p2p.SearchOptions{})
		return err
	})
	if !p.timing {
		return
	}
	p.acc.searches++
	p.acc.searchMsgs += p.msgs.Value() - m0
	p.acc.lookups += p.lookups.Value() - l0
	p.acc.rounds += p.rounds.Value() - r0
	p.acc.contacted += p.contacted.Value() - c0
	p.acc.searchResults += int64(len(rs))
	p.acc.vsearch = append(p.acc.vsearch, ms(p.c.Net.MaxPathLatency()))
	p.checks = append(p.checks, recallCheck{comm: comm, f: f, at: p.t.now, got: rs})
}

func (p *simPass) discover() {
	ci := p.rng.Intn(len(p.comms))
	from := p.livePeer()
	f := query.MustParse("(name=" + p.plans[ci].spec.Name + ")")
	var rs []p2p.Result
	p.op(opDiscover, func() error {
		var err error
		rs, err = p.c.Servents[from].DiscoverCommunities(f, p2p.SearchOptions{})
		return err
	})
	if p.timing {
		p.checks = append(p.checks, recallCheck{comm: core.RootCommunityID, f: f, at: p.t.now, got: rs})
	}
}

// publish has peer publish the next fresh object of community ci.
func (p *simPass) publish(peer, ci int) {
	pl := p.plans[ci]
	obj := pl.fresh[p.fresh[ci]%len(pl.fresh)]
	p.fresh[ci]++
	sv := p.c.Servents[peer]
	var doc *index.Document
	p.op(opPublish, func() error {
		id, err := sv.Publish(p.comms[ci].ID, obj.Doc.Clone(), nil)
		if err != nil {
			return err
		}
		doc, err = sv.Store().Get(id)
		return err
	})
	if doc != nil {
		p.t.add(doc, peer)
	}
}

// retrieveAndView fetches an object from a live holder onto a live
// member that lacks it, then renders it there.
func (p *simPass) retrieveAndView() {
	ci := p.rng.Intn(len(p.comms))
	ids := p.t.byComm[p.comms[ci].ID]
	var id index.DocID
	var provider, target int
	for {
		id = ids[p.rng.Intn(len(ids))]
		d := p.t.docs[id]
		h := d.holders[p.rng.Intn(len(d.holders))]
		if !p.c.Alive(h.peer) {
			continue
		}
		if m := p.liveMember(ci); !d.holds(m) {
			provider, target = h.peer, m
			break
		}
	}
	sv := p.c.Servents[target]
	var doc *index.Document
	p.op(opRetrieve, func() error {
		var err error
		doc, err = sv.Retrieve(id, p.c.Servents[provider].PeerID())
		return err
	})
	if doc != nil {
		p.t.add(doc, target)
	}
	p.op(opView, func() error {
		out, err := sv.View(id)
		if err == nil && out == "" {
			err = fmt.Errorf("view of %s rendered nothing", id)
		}
		return err
	})
}

// arrival adds a peer that joins one community and publishes one
// fresh object into it; the publish is the timed operation.
func (p *simPass) arrival() {
	id := p.st.begin("sim.AddPeer", 0, p.parent)
	t0 := time.Now()
	var peer int
	var err error
	sut(func() { peer, err = p.c.AddPeer() })
	if p.timing {
		p.acc.joinWall += time.Since(t0)
		p.acc.joins++
	}
	p.st.end(id)
	if err != nil {
		p.err = err
		return
	}
	ci := p.rng.Intn(len(p.comms))
	sut(func() { err = p.c.Servents[peer].AdoptCommunity(p.comms[ci]) })
	if err != nil {
		p.err = err
		return
	}
	p.members[ci] = append(p.members[ci], peer)
	p.publish(peer, ci)
}

// departure kills a random live peer other than a community creator.
func (p *simPass) departure() {
	victim := p.livePeer()
	if victim < len(p.comms) {
		return
	}
	id := p.st.begin("sim.KillPeer", 0, p.parent)
	sut(func() { p.c.KillPeer(victim) })
	p.st.end(id)
	p.t.depart(victim)
}

func resultIDs(rs []p2p.Result) []index.DocID {
	ids := make([]index.DocID, len(rs))
	for i, r := range rs {
		ids[i] = r.DocID
	}
	return ids
}

// layerMetrics derives the sim-side per-layer metrics of the pass.
func (p *simPass) layerMetrics() map[string]float64 {
	a, d := p.acc, p.res.delta
	m := map[string]float64{
		"transport.msgs_per_search":         div(float64(a.searchMsgs), float64(a.searches)),
		"transport.payload_bytes_per_msg":   div(float64(p.res.bytes), float64(p.res.msgs)),
		"dsim.events_per_query":             div(float64(a.steps), float64(a.searches)),
		"vsearch_p50_ms":                    quantile(a.vsearch, 0.5),
		"p2p.results_per_search":            div(float64(a.searchResults), float64(a.searches)),
		"dht.join_ms_per_peer":              div(ms(a.joinWall), float64(a.joins)),
		"dht.refresh_ms_per_peer":           div(ms(a.refreshWall), float64(a.refreshed)),
		"dht.republishes_skipped_per_round": div(float64(d.Counter("dht.republishes_skipped")), float64(a.refreshRounds)),
	}
	if p.w.proto == sim.DHT {
		m["dht.lookups_per_search"] = div(float64(a.lookups), float64(a.searches))
		m["dht.rounds_per_lookup"] = div(float64(a.rounds), float64(a.lookups))
		m["dht.contacted_per_lookup"] = div(float64(a.contacted), float64(a.lookups))
		m["dht.search_ms_p50"] = quantile(p.res.lat[opSearch], 0.5)
		m["dht.store_fanout_per_publish"] = div(float64(a.storeFanout), float64(a.publishes))
	} else {
		m["dht.join_ms_per_peer"] = 0
		hits := d.Label("transport.msgs_by_type", p2p.MsgQueryHit)
		m["p2p.hit_msg_ratio"] = div(float64(hits), float64(hits+d.Label("transport.msgs_by_type", p2p.MsgQuery)))
	}
	return m
}

// startProfile starts a CPU profile into path and returns its stop.
func startProfile(path string) (func(), error) {
	f, err := createFile(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}
