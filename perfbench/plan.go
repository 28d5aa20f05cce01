package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/query"
	"repro/internal/xmldoc"
)

// opClass is the kind of a timed user operation.
type opClass int

const (
	opSearch opClass = iota
	opDiscover
	opPublish
	opRetrieve
	opView
	numClasses
)

var classNames = [numClasses]string{"search", "discover", "publish", "retrieve", "view"}

func (c opClass) String() string { return classNames[c] }

// commPlan is one community of a workload: its spec, the objects
// seeded before the timed phase, and fresh objects for creates and
// arrivals during it.
type commPlan struct {
	spec   core.CommunitySpec
	corpus string
	seeded []corpus.Object
	fresh  []corpus.Object
}

// planCommunities spreads n communities evenly over the four corpora,
// each with perComm seeded objects and freshN spares. The objects
// depend only on the community's position, not on the run's seed: the
// seed moves placement, topology and the operation stream, while the
// data every seed searches stays the same, so runs on different seeds
// measure the same work.
func planCommunities(n, perComm, freshN int) []commPlan {
	names := corpus.Names()
	plans := make([]commPlan, n)
	for i := range plans {
		name := names[i%len(names)]
		c, err := corpus.ByName(name, perComm+freshN, int64(i)+1)
		if err != nil {
			panic(err) // corpus.Names lists only known corpora
		}
		plans[i] = commPlan{
			spec: core.CommunitySpec{
				Name:        fmt.Sprintf("%s-%02d", name, i),
				Description: "benchmark community",
				Keywords:    name,
				SchemaSrc:   c.SchemaSrc,
			},
			corpus: name,
			seeded: c.Objects[:perComm],
			fresh:  c.Objects[perComm:],
		}
	}
	return plans
}

// filterAttrs are the per-corpus search templates: a search picks one
// of these fields of a random seeded object and asks for its value,
// the way a user fills one box of the generated search form.
var filterAttrs = map[string][]string{
	"designpatterns": {"classification", "keywords", "participants", "name"},
	"mp3":            {"genre", "artist", "year", "album"},
	"cml":            {"category", "formula", "title"},
	"species":        {"kingdom", "family", "habitat", "conservationStatus"},
}

// holding is one peer's copy of an object, stamped with the truth
// clock's reading when the peer got it.
type holding struct {
	peer int
	at   int64
}

// docTruth is driver-side ground truth for one published object.
type docTruth struct {
	comm    string
	attrs   query.Attrs
	holders []holding
}

func (d *docTruth) holds(peer int) bool {
	for _, h := range d.holders {
		if h.peer == peer {
			return true
		}
	}
	return false
}

// truth is the driver's ground truth: every object it published or
// replicated, who holds a copy and since when, and when each departed
// peer left. Its clock ticks on every change, so what a search should
// have found can be worked out after the timed phase from the clock's
// reading when the search was issued.
type truth struct {
	docs   map[index.DocID]*docTruth
	byComm map[string][]index.DocID
	now    int64
	// left maps a departed peer to the clock reading when it left.
	left map[int]int64
}

func newTruth() *truth {
	return &truth{docs: make(map[index.DocID]*docTruth), byComm: make(map[string][]index.DocID), left: make(map[int]int64)}
}

// add records that peer holds doc.
func (t *truth) add(doc *index.Document, peer int) {
	d := t.docs[doc.ID]
	if d == nil {
		d = &docTruth{comm: doc.CommunityID, attrs: doc.Attrs}
		t.docs[doc.ID] = d
		t.byComm[doc.CommunityID] = append(t.byComm[doc.CommunityID], doc.ID)
	}
	if !d.holds(peer) {
		t.now++
		d.holders = append(d.holders, holding{peer: peer, at: t.now})
	}
}

// depart records that peer left the overlay.
func (t *truth) depart(peer int) {
	t.now++
	t.left[peer] = t.now
}

// expected returns the documents of community comm matching f that
// some peer held, and had not left, at clock reading at.
func (t *truth) expected(comm string, f query.Filter, at int64) map[index.DocID]bool {
	out := make(map[index.DocID]bool)
	for _, id := range t.byComm[comm] {
		d := t.docs[id]
		if !f.Match(d.attrs) {
			continue
		}
		for _, h := range d.holders {
			if left := t.left[h.peer]; h.at <= at && (left == 0 || left > at) {
				out[id] = true
				break
			}
		}
	}
	return out
}

// searchValues draws a one-field search form for community comm from
// the values of a random object it holds.
func (t *truth) searchValues(rng *rand.Rand, comm, corpusName string) url.Values {
	ids := t.byComm[comm]
	d := t.docs[ids[rng.Intn(len(ids))]]
	var fields []string
	for _, a := range filterAttrs[corpusName] {
		if len(d.attrs[a]) > 0 {
			fields = append(fields, a)
		}
	}
	if len(fields) == 0 {
		for a := range d.attrs {
			fields = append(fields, a)
		}
		sort.Strings(fields)
	}
	a := fields[rng.Intn(len(fields))]
	vs := d.attrs[a]
	return url.Values{a: {vs[rng.Intn(len(vs))]}}
}

// recall is the share of want found in got; 1 when nothing was
// expected.
func recall(want map[index.DocID]bool, got []index.DocID) float64 {
	if len(want) == 0 {
		return 1
	}
	seen := make(map[index.DocID]bool, len(got))
	found := 0
	for _, id := range got {
		if want[id] && !seen[id] {
			seen[id] = true
			found++
		}
	}
	return float64(found) / float64(len(want))
}

// formValues flattens an object into the create-form fields that
// rebuild it: leaf elements by slash-separated path.
func formValues(obj *xmldoc.Node) url.Values {
	v := url.Values{}
	var walk func(n *xmldoc.Node, prefix string)
	walk = func(n *xmldoc.Node, prefix string) {
		for _, c := range n.Elements() {
			path := c.LocalName()
			if prefix != "" {
				path = prefix + "/" + path
			}
			if len(c.Elements()) > 0 {
				walk(c, path)
			} else {
				v.Add(path, c.Text())
			}
		}
	}
	walk(obj, "")
	return v
}

// communityDoc finds the root-community object a creator published
// for the community named name.
func communityDoc(sv *core.Servent, name string) (*index.Document, error) {
	for _, d := range sv.SearchLocal(core.RootCommunityID, query.MatchAll{}, 0) {
		if d.Attrs.Get("name") == name {
			return d, nil
		}
	}
	return nil, fmt.Errorf("community %s: no root-community object on its creator", name)
}
