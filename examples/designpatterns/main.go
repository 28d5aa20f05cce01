// Design-pattern case study (paper §V): the Carleton Pattern
// Repository rebuilt as a U-P2P community — rich metadata queries over
// a distributed pattern catalogue, a custom display stylesheet, and a
// source-code attachment downloaded with the pattern.
//
// Run: go run ./examples/designpatterns
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

// customPatternView is the community designer's stylesheet (§V: "a
// custom stylesheet was required to render this complex object").
const customPatternView = `<xsl:stylesheet xmlns:xsl="http://www.w3.org/1999/XSL/Transform" version="1.0">
  <xsl:template match="/">
    <article class="pattern">
      <h1><xsl:value-of select="pattern/name"/></h1>
      <p class="meta"><xsl:value-of select="pattern/classification"/> pattern</p>
      <blockquote><xsl:value-of select="pattern/intent"/></blockquote>
      <h2>Participants</h2>
      <ul>
        <xsl:for-each select="pattern/participants">
          <li><xsl:value-of select="."/></li>
        </xsl:for-each>
      </ul>
      <h2>Applicability</h2>
      <p><xsl:value-of select="pattern/applicability"/></p>
    </article>
  </xsl:template>
</xsl:stylesheet>`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Three researcher peers on a Gnutella overlay: fully distributed,
	// no central index (the repository paper's unimplemented
	// "distributed mesh", realized).
	net := transport.NewMemNetwork()
	var nodes []*p2p.GnutellaNode
	var peers []*core.Servent
	for _, name := range []transport.PeerID{"carleton", "mit", "epfl"} {
		ep, err := net.Endpoint(name)
		if err != nil {
			return err
		}
		st := index.NewStore()
		node := p2p.NewGnutellaNode(ep, st, p2p.Env{})
		sv, err := core.NewServent(node, st)
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
		peers = append(peers, sv)
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].AddNeighbor(nodes[j].PeerID())
			}
		}
	}
	carleton, mit, epfl := peers[0], peers[1], peers[2]

	comm, err := carleton.CreateCommunity(core.CommunitySpec{
		Name:            "designpatterns",
		Description:     "software design patterns with searchable intent, keywords and participants",
		Keywords:        "design patterns gof software engineering",
		Category:        "computer-science",
		Protocol:        "Gnutella",
		SchemaSrc:       corpus.PatternSchemaSrc,
		DisplayStyleSrc: customPatternView,
	})
	if err != nil {
		return err
	}
	fmt.Println("carleton created", comm)

	// The other sites discover and join over the flood.
	for _, peer := range []*core.Servent{mit, epfl} {
		found, err := peer.DiscoverCommunities(query.MustParse("(keywords~=patterns)"), p2p.SearchOptions{TTL: 3})
		if err != nil {
			return err
		}
		if _, err := peer.JoinFromNetwork(found[0]); err != nil {
			return err
		}
	}
	fmt.Println("mit and epfl joined via root-community discovery")

	// Carleton publishes the GoF catalogue; the Observer pattern
	// carries a source-code attachment.
	patterns := corpus.DesignPatterns(corpus.GofCount, 7)
	for _, o := range patterns.Objects {
		var attachments map[string][]byte
		if o.Doc.ChildText("name") == "Observer" {
			uri := core.AttachmentURI("observer", "Observer.java")
			o.Doc.AppendChild(attachURIElement(uri))
			attachments = map[string][]byte{
				uri: []byte("public interface Observer { void update(Subject s); }"),
			}
		}
		if _, err := carleton.Publish(comm.ID, o.Doc, attachments); err != nil {
			return err
		}
	}
	fmt.Printf("carleton published %d patterns\n", corpus.GofCount)

	// MIT runs the rich queries the paper says filename search cannot
	// express (§II: "search not just name but purpose, keywords,
	// applications, etc.").
	queries := []string{
		"(intent~=one-to-many)",
		"(&(classification=behavioral)(keywords=notification))",
		"(participants=Subject)",
		"(|(name~=Factory)(keywords=factory))",
	}
	for _, q := range queries {
		hits, err := mit.Search(comm.ID, query.MustParse(q), p2p.SearchOptions{TTL: 3})
		if err != nil {
			return err
		}
		fmt.Printf("mit query %-55s -> %d hit(s)", q, len(hits))
		if len(hits) > 0 {
			fmt.Printf(" (first: %s, %d hop(s))", hits[0].Title, hits[0].Hops)
		}
		fmt.Println()
	}

	// EPFL downloads Observer — object, attachment and all — and
	// renders it through the custom stylesheet.
	hits, err := epfl.Search(comm.ID, query.MustParse("(name=Observer)"), p2p.SearchOptions{TTL: 3})
	if err != nil {
		return err
	}
	doc, err := epfl.Retrieve(hits[0].DocID, hits[0].Provider)
	if err != nil {
		return err
	}
	code, ok := epfl.Attachment(doc.Attachments[0])
	if !ok {
		return fmt.Errorf("attachment not downloaded")
	}
	fmt.Printf("epfl downloaded Observer with attachment (%d bytes of Java)\n", len(code))
	html, err := epfl.View(doc.ID)
	if err != nil {
		return err
	}
	fmt.Printf("custom stylesheet rendered %d bytes of HTML\n", len(html))

	// Replication: EPFL's download makes it a provider; kill Carleton
	// and the pattern survives.
	nodes[1].RemoveNeighbor(nodes[0].PeerID())
	nodes[2].RemoveNeighbor(nodes[0].PeerID())
	_ = carleton.Close()
	hits, err = mit.Search(comm.ID, query.MustParse("(name=Observer)"), p2p.SearchOptions{TTL: 3})
	if err != nil {
		return err
	}
	fmt.Printf("after carleton left: Observer still found at %d provider(s)\n", len(hits))
	return nil
}

func attachURIElement(uri string) *xmldoc.Node {
	n := xmldoc.NewElement("sourceCode")
	n.AppendChild(xmldoc.NewText(uri))
	return n
}
