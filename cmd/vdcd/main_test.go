package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"chimera/internal/obs"
)

// runMain is the first argument that makes the test binary run vdcd's
// main with the arguments after it (TestLegacyDirRefused).
const runMain = "-run-vdcd-main"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == runMain {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestLegacyDirRefused: vdcd on a directory an earlier build wrote
// exits non-zero before serving, with Open's error naming the command
// that converts it, and leaves the directory as it was.
func TestLegacyDirRefused(t *testing.T) {
	dir := t.TempDir()
	fixture := filepath.Join("..", "..", "internal", "migrate", "testdata", "jsonl1")
	names, err := filepath.Glob(filepath.Join(fixture, "*"))
	if err != nil || len(names) == 0 {
		t.Fatalf("fixture: %v %v", names, err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out, err := exec.Command(os.Args[0], runMain, "-dir", dir, "-addr", "127.0.0.1:0").CombinedOutput()
	if _, exited := err.(*exec.ExitError); !exited {
		t.Fatalf("vdcd on a legacy directory: err=%v, want a non-zero exit\n%s", err, out)
	}
	if !strings.Contains(string(out), "chimera migrate -dir "+dir) {
		t.Fatalf("vdcd's error does not name the migrate command:\n%s", out)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.bin")); !os.IsNotExist(err) {
		t.Fatalf("vdcd wrote into the legacy directory: %v", err)
	}
}

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
