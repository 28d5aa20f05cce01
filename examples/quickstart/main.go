// Quickstart: the whole U-P2P idea in one file.
//
// 1. Describe a shared resource with an XML Schema (no code).
// 2. U-P2P generates the application: create form, search form, view.
// 3. Publish objects, search them by metadata, download from peers.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/transport"
)

// A recipe-sharing community, described purely as data — the paper's
// pitch is that this schema IS the application.
const recipeSchema = `<?xml version="1.0"?>
<schema xmlns="http://www.w3.org/2001/XMLSchema" xmlns:up2p="http://up2p.carleton.ca/ns/community">
 <element name="recipe">
  <complexType>
   <sequence>
    <element name="title" type="xsd:string" up2p:searchable="true"/>
    <element name="cuisine" type="cuisineType" up2p:searchable="true"/>
    <element name="ingredient" type="xsd:string" maxOccurs="unbounded" up2p:searchable="true"/>
    <element name="minutes" type="xsd:integer" up2p:searchable="true"/>
    <element name="instructions" type="xsd:string"/>
   </sequence>
  </complexType>
 </element>
 <simpleType name="cuisineType">
  <restriction base="string">
   <enumeration value="italian"/>
   <enumeration value="japanese"/>
   <enumeration value="mexican"/>
  </restriction>
 </simpleType>
</schema>`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Two peers and a Napster-style index server on an in-memory
	// network (swap in transport.ListenTCP for real sockets).
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
	alice, err := newPeer("alice")
	if err != nil {
		return err
	}
	bob, err := newPeer("bob")
	if err != nil {
		return err
	}

	// Alice creates the community from the schema; it is published
	// into the root community so it can be discovered.
	comm, err := alice.CreateCommunity(core.CommunitySpec{
		Name:        "recipes",
		Description: "home cooking recipes with searchable ingredients",
		Keywords:    "food cooking recipes",
		SchemaSrc:   recipeSchema,
	})
	if err != nil {
		return err
	}
	fmt.Println("created", comm)

	// The create form is GENERATED from the schema — print a taste.
	form, err := comm.CreateFormHTML()
	if err != nil {
		return err
	}
	fmt.Printf("generated create form: %d bytes of HTML (one input per schema field)\n", len(form))

	// Alice publishes a recipe through the same path a form submission
	// takes.
	docID, err := alice.CreateFromForm(comm.ID, map[string][]string{
		"title":        {"Cacio e Pepe"},
		"cuisine":      {"italian"},
		"ingredient":   {"spaghetti", "pecorino", "black pepper"},
		"minutes":      {"20"},
		"instructions": {"Cook pasta; emulsify cheese with pasta water and pepper; toss."},
	})
	if err != nil {
		return err
	}
	fmt.Println("alice published", docID)

	// Bob discovers the community by searching the root community —
	// community discovery is just object search.
	found, err := bob.DiscoverCommunities(query.MustParse("(keywords~=cooking)"), p2p.SearchOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("bob discovered %d community(ies): %s\n", len(found), found[0].Title)

	// Joining downloads the community object + schema + stylesheets.
	joined, err := bob.JoinFromNetwork(found[0])
	if err != nil {
		return err
	}
	fmt.Println("bob joined", joined)

	// Bob searches by metadata no filename could carry.
	hits, err := bob.Search(joined.ID, query.MustParse("(&(ingredient=pecorino)(minutes<=30))"), p2p.SearchOptions{})
	if err != nil {
		return err
	}
	fmt.Printf("bob's metadata search found %d recipe(s): %s (provided by %s)\n",
		len(hits), hits[0].Title, hits[0].Provider)

	// Bob downloads the full object and views it through the
	// community's stylesheet.
	if _, err := bob.Retrieve(hits[0].DocID, hits[0].Provider); err != nil {
		return err
	}
	html, err := bob.View(hits[0].DocID)
	if err != nil {
		return err
	}
	fmt.Printf("bob rendered the recipe to %d bytes of HTML via the view stylesheet\n", len(html))
	fmt.Println("quickstart complete")
	return nil
}
