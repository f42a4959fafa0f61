package main

import (
	"os"
	"strings"
	"testing"

	"chimera/internal/obs"
)

// TestMetricCatalogDocumented keeps docs/OBSERVABILITY.md complete: every
// metric family this daemon can expose — vdcd links every package that
// registers one — must appear in the metric catalog by name.
func TestMetricCatalogDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	obs.EnableRuntimeMetrics(obs.Default)
	names := obs.Default.Names()
	if len(names) < 50 {
		t.Fatalf("only %d families registered; is the default registry wired?", len(names))
	}
	for _, name := range names {
		if !strings.Contains(string(doc), "`"+name+"`") {
			t.Errorf("metric family %s is registered but missing from docs/OBSERVABILITY.md", name)
		}
	}
}
