package query

import "testing"

// FuzzParse feeds arbitrary text to the query parser: Parse must fail
// or succeed, never panic, and whatever it accepts must render (String)
// to text that parses back and renders identically — `?explain=1`
// prints that rendering and the plan cache keys on it, so it has to
// identify the expression. Run `go test -fuzz FuzzParse
// ./internal/query` for a longer campaign; `go test` exercises the
// seeds.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		`type <= CMS and attr.owner = "annis" and not materialized`,
		`name ~ "run1.*" and descendantof(raw07)`,
		`tr = sdss::brgSearch:1.0 and executed`,
		`output <= FITS:_:gzip or input <= "Events;ROOT;*"`,
		`consumes(x) or produces("y z")`,
		"name~ \"\xae\"",
		`name = "a\"b\\c" or attr.k != ""`,
		`not (derived or virtual) and *`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := Parse(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		s := e.String()
		e2, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", src, s, err)
		}
		if s2 := e2.String(); s2 != s {
			t.Fatalf("Parse(%q) renders %q, which renders back as %q", src, s, s2)
		}
	})
}
