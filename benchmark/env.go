package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workRoot is the parent, relative to the repository root, of the
// temporary directory each benchmark process works in. It is inside the
// tree and not under os.TempDir because the driver's checkout is the
// only place a run may write. The root .gitignore names it.
const workRoot = ".bench_build"

// newWorkDir makes this process's own temporary directory: the vdcd
// binary, catalog directories and server logs live there, and the caller
// removes it when the process is done.
func newWorkDir(root string) (string, error) {
	base := filepath.Join(root, workRoot)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// environment stamps a result file with what is needed to judge
// whether two files are comparable.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Started    string `json:"started"`
}

func stampEnvironment(root string) environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Kernel:     "unknown",
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if commit := gitCommit(root); commit != "" {
		env.Commit = commit
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(rel))
	}
	return env
}

// gitCommit reads the checked-out commit from root/.git without running
// git. The driver's checkout is not a git repository; "" leaves the
// stamp at "unknown" there.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, symbolic := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !symbolic {
		return ref // detached HEAD: the hash itself
	}
	if hash, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(hash))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, ok := strings.CutSuffix(line, " "+ref); ok {
			return hash
		}
	}
	return ""
}

// findRoot walks up from the working directory to the module root:
// `go run ./benchmark` starts there, `go test` starts in benchmark/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(data), "module chimera") {
			if _, err := os.Stat(filepath.Join(dir, "cmd", "vdcd")); err == nil {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("benchmark: no chimera module root (go.mod + cmd/vdcd) above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles ./cmd/vdcd from the tree the benchmark runs in
// into work. It runs before any timer starts: build time is not a
// metric.
func buildServer(root, work string) (string, error) {
	bin := filepath.Join(work, "vdcd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vdcd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("benchmark: go build ./cmd/vdcd: %v\n%s", err, out)
	}
	return bin, nil
}

// newRunDir makes a private directory for one workload run.
func newRunDir(work, workload string) (string, error) {
	return os.MkdirTemp(work, workload+"-")
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of a flat directory (a catalog
// directory has no subdirectories).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
