package federation

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"chimera/internal/catalog"
	"chimera/internal/vds"
)

// jsonOnly simulates a pre-negotiation member: its server never sees
// the Accept header, so every export answers JSON — exactly how a
// binary-unaware build behaves.
func jsonOnly(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Header.Del("Accept")
		h.ServeHTTP(w, r)
	})
}

// mixedSite spins up one member. It returns the member's catalog, a
// client of its server, which strips content negotiation when legacy
// is set, and a client of a JSON-only server on the same catalog, for
// the oracle.
func mixedSite(t *testing.T, name string, legacy bool) (cat *catalog.Catalog, client, jsonClient *vds.Client) {
	t.Helper()
	cat = catalog.New(nil)
	srv := vds.NewServer(name, cat)
	var h http.Handler = srv
	if legacy {
		h = jsonOnly(srv)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	js := httptest.NewServer(jsonOnly(srv))
	t.Cleanup(js.Close)
	return cat, vds.NewClient(hs.URL), vds.NewClient(js.URL)
}

// TestMixedVersionFederationEquivalence drives randomized mutation
// histories through a federation whose members cover the whole
// negotiation matrix — a JSON-only member the crawler negotiates down
// to, and binary end to end — and requires the merged catalog to stay
// byte-identical to the all-JSON oracle after every round.
func TestMixedVersionFederationEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	legacy := []bool{
		true,  // JSON-only member: negotiate down
		false, // binary end-to-end
	}

	mixed := NewIndex("mixed", "test")
	oracle := NewIndex("oracle", "test")
	var muts []*mutator
	for i, l := range legacy {
		name := fmt.Sprintf("m%d", i)
		cat, client, jsonClient := mixedSite(t, name, l)
		muts = append(muts, &mutator{rng: rng, cat: cat, prefix: name})
		mixed.AddMember(name, client)
		oracle.AddMember(name, jsonClient)
	}
	// A tight journal window on the binary end-to-end member forces its
	// deltas through the full-export fallback mid-test.
	muts[1].cat.SetJournalWindow(4)

	for round := 0; round < 10; round++ {
		steps := rng.Intn(12)
		for s := 0; s < steps; s++ {
			muts[rng.Intn(len(muts))].step(t)
		}
		if err := mixed.Crawl(); err != nil {
			t.Fatal(err)
		}
		if err := oracle.Crawl(); err != nil {
			t.Fatal(err)
		}
		compareSnapshots(t, round, snap(t, mixed), snap(t, oracle))
	}
}
