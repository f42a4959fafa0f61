package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chimera/internal/vds"
)

// stdout runs cmd and returns what it printed to standard output.
func stdout(t *testing.T, cmd func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		data, _ := io.ReadAll(r)
		out <- data
	}()
	cmdErr := cmd()
	os.Stdout = saved
	w.Close()
	data := <-out
	r.Close()
	if cmdErr != nil {
		t.Fatal(cmdErr)
	}
	return string(data)
}

// TestLocalAndRemotePrintAlike: lineage (text and -dot), stats and the
// transformation and derivation searches print the same bytes against a
// catalog directory and against the service that shares it, recorded
// runs included.
func TestLocalAndRemotePrintAlike(t *testing.T) {
	if _, err := os.Stat("/bin/cat"); err != nil {
		t.Skip("POSIX binaries unavailable")
	}
	cat := openCat(t)
	if err := insert(cat, []string{filepath.Join(repoRoot(t), "examples/vdl/posix-pipeline.vdl")}); err != nil {
		t.Fatal(err)
	}
	ws := t.TempDir()
	if err := os.WriteFile(filepath.Join(ws, "corpus"), []byte("virtual data\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout(t, func() error { return run(cat, []string{"-workspace", ws, "report"}) })
	srv := httptest.NewServer(vds.NewServer("shared", cat))
	defer srv.Close()
	client := vds.NewClient(srv.URL)

	for _, args := range [][]string{{"report"}, {"-dot", "report"}, {"corpus"}} {
		local := stdout(t, func() error { return lineage(cat, args) })
		remote := stdout(t, func() error { return remoteCommand(client, "lineage", args) })
		if local != remote {
			t.Errorf("lineage %q:\nlocal:\n%s\nremote:\n%s", args, local, remote)
		}
		if args[0] == "report" && !strings.Contains(local, "           run ") {
			t.Errorf("lineage %q prints no recorded run:\n%s", args, local)
		}
	}
	// A search reply carries whole records, so only the dataset lines
	// (no materialized column remotely) differ.
	for _, kind := range []string{"transformation", "derivation"} {
		args := []string{"-kind", kind, "*"}
		local := stdout(t, func() error { return search(cat, args) })
		remote := stdout(t, func() error { return remoteCommand(client, "search", args) })
		if local != remote || local == "" {
			t.Errorf("search %q:\nlocal:\n%s\nremote:\n%s", args, local, remote)
		}
	}
	local := stdout(t, func() error { return localCommands["stats"](cat, nil) })
	remote := stdout(t, func() error { return remoteCommand(client, "stats", nil) })
	if local != remote {
		t.Errorf("stats:\nlocal:  %s\nremote: %s", local, remote)
	}
}
