package main

import (
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/p2p"
	"repro/internal/servent"
	"repro/internal/transport"
)

func TestExtract(t *testing.T) {
	body := "<li>one</li> junk <li>two</li>"
	got := extract(body, "<li>", "</li>")
	if !reflect.DeepEqual(got, []string{"one", "two"}) {
		t.Errorf("extract = %v", got)
	}
	if got := extract("no list items", "<li>", "</li>"); got != nil {
		t.Errorf("extract none = %v", got)
	}
	if got := extract("<li>unterminated", "<li>", "</li>"); got != nil {
		t.Errorf("extract unterminated = %v", got)
	}
}

func TestStripTags(t *testing.T) {
	if got := stripTags(`<a href="x">link</a> text`); got != "link  text" {
		t.Errorf("stripTags = %q", got)
	}
	if got := stripTags("plain"); got != "plain" {
		t.Errorf("plain = %q", got)
	}
}

func TestKVToValues(t *testing.T) {
	vals, err := kvToValues([]string{"a=1", "b=two words"})
	if err != nil {
		t.Fatal(err)
	}
	if vals.Get("a") != "1" || vals.Get("b") != "two words" {
		t.Errorf("vals = %v", vals)
	}
	if _, err := kvToValues([]string{"novalue"}); err == nil {
		t.Error("missing '=' accepted")
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"unknown-subcommand"},
		{"search"},
		{"create"},
		{"view"},
		{"view", "a", "b"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}

// TestCLIAgainstLiveServent drives the real web handler through the
// CLI client end to end.
func TestCLIAgainstLiveServent(t *testing.T) {
	net := transport.NewMemNetwork()
	sep, err := net.Endpoint("server")
	if err != nil {
		t.Fatal(err)
	}
	p2p.NewIndexServer(sep, index.NewStore(), p2p.Env{})
	ep, err := net.Endpoint("peer")
	if err != nil {
		t.Fatal(err)
	}
	st := index.NewStore()
	sv, err := core.NewServent(p2p.NewCentralizedClient(ep, "server", st, p2p.Env{}), st)
	if err != nil {
		t.Fatal(err)
	}
	comm, err := sv.CreateCommunity(core.CommunitySpec{
		Name: "mp3", Keywords: "music", SchemaSrc: corpus.SongSchemaSrc,
	})
	if err != nil {
		t.Fatal(err)
	}
	web := httptest.NewServer(servent.New(sv))
	defer web.Close()

	capture := func(fn func() error) (string, error) {
		old := os.Stdout
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		os.Stdout = w
		callErr := fn()
		w.Close()
		os.Stdout = old
		var b strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := r.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return b.String(), callErr
	}

	out, err := capture(func() error {
		return run([]string{"-servent", web.URL, "communities"})
	})
	if err != nil {
		t.Fatalf("communities: %v", err)
	}
	if !strings.Contains(out, "mp3") {
		t.Errorf("communities output = %q", out)
	}

	if _, err := capture(func() error {
		return run([]string{"-servent", web.URL, "create", comm.ID,
			"title=So What", "artist=Miles Davis", "genre=jazz"})
	}); err != nil {
		t.Fatalf("create: %v", err)
	}

	out, err = capture(func() error {
		return run([]string{"-servent", web.URL, "search", comm.ID, "artist=Miles Davis"})
	})
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !strings.Contains(out, "So What") {
		t.Errorf("search output = %q", out)
	}

	out, err = capture(func() error {
		return run([]string{"-servent", web.URL, "discover", "keywords=music"})
	})
	if err != nil || !strings.Contains(out, "mp3") {
		t.Errorf("discover = %q, %v", out, err)
	}

	// Bad create surfaces the servent's error.
	_, err = capture(func() error {
		return run([]string{"-servent", web.URL, "create", comm.ID, "genre=polka"})
	})
	if err == nil {
		t.Error("invalid create succeeded")
	}
}
