package catalog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"chimera/internal/schema"
)

// TestGroupCommitDurableAfterAck is the crash-after-ack contract: once
// a mutation returns success, the record must already be in the WAL
// file (written and fsynced). Each iteration snapshots the raw WAL
// bytes immediately after the ack — a simulated power cut — and
// replays them into a fresh catalog, which must contain the mutation.
func TestGroupCommitDurableAfterAck(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.AddTransformation(twoArg("t")); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, walFile)
	for i := 0; i < 20; i++ {
		dv, err := c.AddDerivation(chainDV("t", fmt.Sprintf("in%d", i), fmt.Sprintf("out%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		// Crash image: whatever is on disk right now, nothing more.
		img, err := os.ReadFile(walPath)
		if err != nil {
			t.Fatal(err)
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walFile), img, 0o644); err != nil {
			t.Fatal(err)
		}
		c2, err := Open(crashDir, nil, Options{})
		if err != nil {
			t.Fatalf("iteration %d: reopen crash image: %v", i, err)
		}
		if _, err := c2.Derivation(dv.ID); err != nil {
			t.Fatalf("iteration %d: acked derivation missing from crash image: %v", i, err)
		}
		c2.Close()
	}
}

// TestGroupCommitReopenRestoresState runs the standard reopen check
// through the group-commit path (default options) including a
// mid-stream snapshot, which must quiesce the committer before
// truncating the log.
func TestGroupCommitReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, c)
	if err := c.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddDerivation(chainDV("t", "cooked", "refined")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
}

// TestInlineFallbackMode checks what MaxBatch=1 means now that every
// record goes through the committer: records commit one per batch,
// fsynced, and round-trip.
func TestInlineFallbackMode(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	batches0, records0 := WALBatchStats()
	populate(t, c)
	batches, records := WALBatchStats()
	if db, dr := batches-batches0, records-records0; db == 0 || dr != float64(db) {
		t.Fatalf("MaxBatch=1: %v records in %d batches, want one per batch", dr, db)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
}

// TestCommitterStickyFailure poisons a committer by handing it a
// closed file: the first commit fails, its waiter gets ErrDurability,
// and every later enqueue is rejected fast instead of appending past a
// hole in the log.
func TestCommitterStickyFailure(t *testing.T) {
	f, err := os.CreateTemp(t.TempDir(), "wal")
	if err != nil {
		t.Fatal(err)
	}
	f.Close() // writes will now fail
	com := newCommitter(f, true, 8, 0)
	defer com.close()

	seq, err := com.enqueue(opDataset, map[string]string{"name": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if err := com.wait(seq); err == nil {
		t.Fatal("commit on closed file reported success")
	} else if !errors.Is(err, ErrDurability) {
		t.Fatalf("want ErrDurability, got %v", err)
	}
	if _, err := com.enqueue(opDataset, map[string]string{"name": "y"}); err == nil {
		t.Fatal("enqueue after WAL failure must fail fast")
	}
	if com.failure() == nil {
		t.Fatal("sticky failure not recorded")
	}
}

// TestInlineStickyFailure poisons a MaxBatch=1 catalog's WAL by
// severing its file descriptor: the failing mutation reports
// ErrDurability, and every later mutation must fail fast instead of
// appending past the (possibly torn) record — which would produce the
// corrupt-mid-file shape replay rejects.
func TestInlineStickyFailure(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := c.shards[0].wal.f.Close(); err != nil { // writes will now fail
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "broken"}); !errors.Is(err, ErrDurability) {
		t.Fatalf("want ErrDurability, got %v", err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "later"}); !errors.Is(err, ErrDurability) {
		t.Fatalf("mutation after WAL failure must fail fast, got %v", err)
	}
	if c.DurabilityErr() == nil {
		t.Fatal("sticky failure not reported by DurabilityErr")
	}
}

// TestDelayWindowExclusiveCommit drives the committer hard with the
// MaxDelay accumulation window forced open (fsyncEWMA pinned far above
// the gate's threshold). The window is part of the commit: while the
// leader sleeps off-lock, no other goroutine may start a second commit
// and recycle the in-flight buffer. Under -race this catches the
// pending/spare aliasing directly; the final scan catches any torn or
// interleaved records on disk.
func TestDelayWindowExclusiveCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	com := newCommitter(f, true, 1024, 200*time.Microsecond)

	// Keep the gate open for the whole run: commits with fast fsyncs
	// decay the EWMA, so a booster re-pins it until the writers finish.
	pinEWMA := func() {
		com.mu.Lock()
		com.fsyncEWMA = 50 * time.Millisecond
		com.mu.Unlock()
	}
	pinEWMA()
	stopBoost := make(chan struct{})
	var boostWG sync.WaitGroup
	boostWG.Add(1)
	go func() {
		defer boostWG.Done()
		for {
			select {
			case <-stopBoost:
				return
			case <-time.After(time.Millisecond):
				pinEWMA()
			}
		}
	}()

	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				seq, err := com.enqueue(opDataset, map[string]string{"name": fmt.Sprintf("w%d-%d", w, i)})
				if err != nil {
					t.Error(err)
					return
				}
				if err := com.wait(seq); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopBoost)
	boostWG.Wait()
	if err := com.close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	records := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec walRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("corrupt WAL record %q: %v", line, err)
		}
		records++
	}
	if records != writers*perWriter {
		t.Fatalf("WAL holds %d records, want %d", records, writers*perWriter)
	}
}

// TestCloseInterruptsDelayWindow stages a contended batch whose leader
// is inside a long accumulation window, then closes the committer: the
// window must be cut short (the batch commits immediately) instead of
// holding Close for the full MaxDelay.
func TestCloseInterruptsDelayWindow(t *testing.T) {
	const maxDelay = 3 * time.Second
	path := filepath.Join(t.TempDir(), "wal")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	com := newCommitter(f, false, 1024, maxDelay)

	// Stage two pending records and fake the contention that opens the
	// accumulation window, without signaling work — the test goroutine
	// below plays the batch leader, exactly as an assisting waiter would.
	com.mu.Lock()
	com.fsyncEWMA = time.Minute
	for _, name := range []string{"a", "b"} {
		rec, err := json.Marshal(walEnvelope{Op: opDataset, Data: map[string]string{"name": name}})
		if err != nil {
			com.mu.Unlock()
			t.Fatal(err)
		}
		com.pending = append(com.pending, rec...)
		com.pending = append(com.pending, '\n')
		com.count++
		com.nextSeq++
	}
	com.waiters = 2
	com.mu.Unlock()

	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		com.mu.Lock()
		com.commitLocked()
		com.mu.Unlock()
	}()

	// Let the leader enter the window, then close underneath it.
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	if err := com.close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > maxDelay/2 {
		t.Fatalf("close blocked %v; the delay window was not interrupted", took)
	}
	<-leaderDone

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(data, []byte("\n")); got != 2 {
		t.Fatalf("WAL holds %d records after close, want 2", got)
	}
}

// TestConcurrentDurableMutationStress hammers one durable catalog with
// 16 writer goroutines while a reader runs lineage queries, then
// reopens and verifies nothing acknowledged was lost. Run under
// -race this exercises the committer's lock discipline.
func TestConcurrentDurableMutationStress(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	const opsPerWriter = 25
	for w := 0; w < writers; w++ {
		if err := c.AddTransformation(twoArg(fmt.Sprintf("t%d", w))); err != nil {
			t.Fatal(err)
		}
	}

	stopReads := make(chan struct{})
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		for {
			select {
			case <-stopReads:
				return
			default:
			}
			// Lineage over whatever chains exist so far; errors are fine
			// (the head may not exist yet), data races are not.
			_, _ = c.Lineage("w0-d5")
			c.Stats()
		}
	}()

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := fmt.Sprintf("t%d", w)
			for i := 0; i < opsPerWriter; i++ {
				in := fmt.Sprintf("w%d-d%d", w, i)
				out := fmt.Sprintf("w%d-d%d", w, i+1)
				dv, err := c.AddDerivation(chainDV(tr, in, out))
				if err != nil {
					errs <- err
					return
				}
				if err := c.AddReplica(schema.Replica{
					ID: fmt.Sprintf("w%d-r%d", w, i), Dataset: out, Site: "anl", PFN: "/store/" + out,
				}); err != nil {
					errs <- err
					return
				}
				if err := c.AddInvocation(schema.Invocation{
					ID: fmt.Sprintf("w%d-iv%d", w, i), Derivation: dv.ID, Site: "anl", Host: "n1",
					Start: time.Unix(100, 0).UTC(), End: time.Unix(130, 0).UTC(),
				}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopReads)
	readerWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Derivations != writers*opsPerWriter {
		t.Fatalf("derivations: got %d, want %d", st.Derivations, writers*opsPerWriter)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	requireSameState(t, c, c2)
}
