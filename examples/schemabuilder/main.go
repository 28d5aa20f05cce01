// Schema-builder tool (paper §VI future work): "We have also created a
// web-based tool for generating XML Schema. The benefits of
// integrating this with U-P2P will be to hide the underlying XML
// completely from the user."
//
// This example is that integration: a community founder writes a plain
// field list — never XML — and gets a complete community: generated
// schema, generated forms, working metadata search.
//
// Run: go run ./examples/schemabuilder
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/query"
	"repro/internal/schemagen"
	"repro/internal/transport"
)

// fieldSpec is everything the founder writes. No XML anywhere.
const fieldSpec = `
# a community for sharing board game designs
boardgame
title       string                         searchable
designer    string                         searchable repeated
mechanism   enum(deckbuilding,worker-placement,auction,coop)  searchable
players     integer                        searchable
minutes     integer                        optional searchable
rulebook    anyURI                         optional attachment
notes       string                         optional
`

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// The tool turns the plain spec into an XML Schema.
	schemaSrc, err := schemagen.GenerateFromText(fieldSpec)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d bytes of XML Schema from %d lines of plain text\n",
		len(schemaSrc), len(strings.Split(strings.TrimSpace(fieldSpec), "\n")))

	// One peer network is enough to show the generated community
	// working end to end.
	net := transport.NewMemNetwork()
	sep, err := net.Endpoint("server")
	if err != nil {
		return err
	}
	p2p.NewIndexServer(sep, index.NewStore(), p2p.Env{})
	ep, err := net.Endpoint("founder")
	if err != nil {
		return err
	}
	st := index.NewStore()
	founder, err := core.NewServent(p2p.NewCentralizedClient(ep, "server", st, p2p.Env{}), st)
	if err != nil {
		return err
	}

	comm, err := founder.CreateCommunity(core.CommunitySpec{
		Name:        "boardgames",
		Description: "board game designs with searchable mechanisms",
		Keywords:    "games tabletop design",
		SchemaSrc:   schemaSrc,
	})
	if err != nil {
		return err
	}
	fmt.Println("created", comm)

	// The generated schema drives the generated forms.
	form, err := comm.CreateFormHTML()
	if err != nil {
		return err
	}
	fmt.Printf("create form: %d bytes; mechanism renders as a dropdown: %v\n",
		len(form), strings.Contains(form, `<select name="mechanism"`))

	// Publish through the form path, search by the declared metadata.
	games := []map[string][]string{
		{"title": {"Dominion"}, "designer": {"Donald X. Vaccarino"}, "mechanism": {"deckbuilding"}, "players": {"4"}, "minutes": {"30"}},
		{"title": {"Agricola"}, "designer": {"Uwe Rosenberg"}, "mechanism": {"worker-placement"}, "players": {"4"}, "minutes": {"90"}},
		{"title": {"Ra"}, "designer": {"Reiner Knizia"}, "mechanism": {"auction"}, "players": {"5"}, "minutes": {"60"}},
		{"title": {"Pandemic"}, "designer": {"Matt Leacock"}, "mechanism": {"coop"}, "players": {"4"}, "minutes": {"45"}},
	}
	for _, g := range games {
		if _, err := founder.CreateFromForm(comm.ID, g); err != nil {
			return err
		}
	}
	fmt.Printf("published %d games through the generated create form\n", len(games))

	queries := []string{
		"(mechanism=worker-placement)",
		"(&(players>=4)(minutes<=45))",
		"(designer~=knizia)",
	}
	for _, q := range queries {
		rs, err := founder.Search(comm.ID, query.MustParse(q), p2p.SearchOptions{})
		if err != nil {
			return err
		}
		titles := make([]string, 0, len(rs))
		for _, r := range rs {
			titles = append(titles, r.Title)
		}
		fmt.Printf("query %-28s -> %v\n", q, titles)
	}
	fmt.Println("schema builder example complete — no XML was written by hand")
	return nil
}
