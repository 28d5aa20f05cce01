// Community discovery (paper §I/§IV.A): "the problem of discovering
// the existence of a community is thus reduced to the problem of
// finding an object."
//
// This example builds a small ecosystem of communities (MP3,
// molecules, species, design patterns) spread across peers, then shows
// a newcomer discovering them all through nothing but root-community
// searches — including filtered discovery ("only science communities")
// and the metaclass analogy made concrete: the community schema (Fig.
// 3) validates every community object in flight.
//
// Run: go run ./examples/communitydiscovery
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
	"repro/internal/xmldoc"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	net := transport.NewMemNetwork()
	sep, err := net.Endpoint("server")
	if err != nil {
		return err
	}
	p2p.NewIndexServer(sep, index.NewStore(), p2p.Env{})
	newPeer := func(name transport.PeerID) (*core.Servent, error) {
		ep, err := net.Endpoint(name)
		if err != nil {
			return nil, err
		}
		st := index.NewStore()
		return core.NewServent(p2p.NewCentralizedClient(ep, "server", st, p2p.Env{}), st)
	}

	// Four founders, each hosting a different community.
	specs := []struct {
		peer     transport.PeerID
		name     string
		keywords string
		category string
		schema   string
	}{
		{"dj", "mp3", "music audio trading", "media", corpus.SongSchemaSrc},
		{"chemist", "molecules", "chemistry cml compounds", "science", corpus.MoleculeSchemaSrc},
		{"biologist", "species", "biodiversity field-guide taxa", "science", corpus.SpeciesSchemaSrc},
		{"engineer", "designpatterns", "software design gof", "computer-science", corpus.PatternSchemaSrc},
	}
	for _, s := range specs {
		peer, err := newPeer(s.peer)
		if err != nil {
			return err
		}
		if _, err := peer.CreateCommunity(core.CommunitySpec{
			Name:      s.name,
			Keywords:  s.keywords,
			Category:  s.category,
			SchemaSrc: s.schema,
		}); err != nil {
			return err
		}
		fmt.Printf("%s founded the %q community\n", s.peer, s.name)
	}

	// A newcomer arrives knowing NOTHING except the root community
	// (which every servent is born into).
	newbie, err := newPeer("newbie")
	if err != nil {
		return err
	}
	fmt.Printf("\nnewbie joins the network; joined communities: %v\n", newbie.Joined())

	// Discovery 1: everything. A community is just an object; this is
	// a plain search in the root community.
	all, err := newbie.DiscoverCommunities(query.MatchAll{}, p2p.SearchOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("\nroot-community search (*) found %d communities:\n", len(all))
	for _, r := range all {
		fmt.Printf("  - %-16s keywords=%q provider=%s\n", r.Attrs.Get("name"), r.Attrs.Get("keywords"), r.Provider)
	}

	// Discovery 2: filtered, using the community schema's own
	// attributes (Fig. 3's "category" field doing its job).
	science, err := newbie.DiscoverCommunities(query.MustParse("(category=science)"), p2p.SearchOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("\nfiltered discovery (category=science) found %d:\n", len(science))
	for _, r := range science {
		fmt.Printf("  - %s\n", r.Attrs.Get("name"))
	}

	// The metaclass analogy, concretely: every discovered community
	// object validates against the root community's schema.
	rootSchema := core.RootCommunity().Schema
	for _, r := range all {
		doc, err := newbie.Retrieve(r.DocID, r.Provider)
		if err != nil {
			return err
		}
		obj, err := xmldoc.ParseString(doc.XML)
		if err != nil {
			return err
		}
		if err := rootSchema.Validate(obj); err != nil {
			return fmt.Errorf("community object %s invalid: %w", r.Title, err)
		}
	}
	fmt.Printf("\nall %d community objects validate against the Fig. 3 community schema\n", len(all))

	// Join the science communities and use one immediately.
	for _, r := range science {
		c, err := newbie.JoinFromDocument(mustDoc(newbie, r))
		if err != nil {
			return err
		}
		fmt.Printf("newbie joined %q (schema %d bytes travelled as an attachment)\n", c.Name, len(c.SchemaSrc))
	}

	// Publish a molecule into the freshly joined community to prove
	// the downloaded schema is live.
	var moleculesID string
	for _, id := range newbie.Joined() {
		if c, ok := newbie.Community(id); ok && c.Name == "molecules" {
			moleculesID = id
		}
	}
	mol := corpus.Molecules(1, 1).Objects[0]
	docID, err := newbie.Publish(moleculesID, mol.Doc, nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nnewbie published %s into the joined molecules community (%s)\n",
		mol.Doc.ChildText("title"), docID)
	fmt.Println("community discovery example complete")
	return nil
}

// mustDoc fetches the already-retrieved community document from the
// local store (Retrieve above cached it).
func mustDoc(sv *core.Servent, r p2p.Result) *index.Document {
	doc, err := sv.Store().Get(r.DocID)
	if err != nil {
		panic(err)
	}
	return doc
}
