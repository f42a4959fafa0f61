package catalog

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"chimera/internal/codec"
	"chimera/internal/schema"
)

// TestGroupCommitDurableAfterAck is the crash-after-ack contract: once
// a mutation returns success, the record must already be in the WAL
// file (written and fsynced). Each iteration snapshots the raw WAL
// bytes immediately after the ack — a simulated power cut — and
// replays them into a fresh catalog, which must contain the mutation.
// The concurrent phase puts 8 writers on the one log, so most acks come
// from batches another waiter led.
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
	// inCrashImage replays whatever is on disk right now, nothing more.
	inCrashImage := func(id string) error {
		img, err := os.ReadFile(walPath)
		if err != nil {
			return err
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walFile), img, 0o644); err != nil {
			return err
		}
		c2, err := Open(crashDir, nil, Options{})
		if err != nil {
			return fmt.Errorf("reopen crash image: %w", err)
		}
		_, err = c2.Derivation(id)
		c2.Close()
		if err != nil {
			return fmt.Errorf("acked derivation missing from crash image: %w", err)
		}
		return nil
	}
	for i := 0; i < 20; i++ {
		dv, err := c.AddDerivation(chainDV("t", fmt.Sprintf("in%d", i), fmt.Sprintf("out%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := inCrashImage(dv.ID); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}

	const writers, perWriter = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				dv, err := c.AddDerivation(chainDV("t", fmt.Sprintf("w%d-in%d", w, i), fmt.Sprintf("w%d-out%d", w, i)))
				if err == nil {
					err = inCrashImage(dv.ID)
				}
				if err != nil {
					t.Errorf("writer %d, op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGroupCommitReopenRestoresState runs the standard reopen check
// through the group-commit path including a mid-stream snapshot, which
// must flush the committer before truncating the log.
func TestGroupCommitReopenRestoresState(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{Sync: true})
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
	com := newCommitter(f, true)

	seq, err := com.enqueue([]codec.Record{{Kind: codec.RecDataset, Value: schema.Dataset{Name: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := com.wait(seq); err == nil {
		t.Fatal("commit on closed file reported success")
	} else if !errors.Is(err, ErrDurability) {
		t.Fatalf("want ErrDurability, got %v", err)
	}
	if _, err := com.enqueue([]codec.Record{{Kind: codec.RecDataset, Value: schema.Dataset{Name: "y"}}}); err == nil {
		t.Fatal("enqueue after WAL failure must fail fast")
	}
	if com.failure() == nil {
		t.Fatal("sticky failure not recorded")
	}
	if err := com.flush(); !errors.Is(err, ErrDurability) {
		t.Fatalf("flush after WAL failure: want the sticky ErrDurability, got %v", err)
	}
}

// TestInlineStickyFailure poisons a default catalog's WAL by severing
// its file descriptor: the failing mutation reports ErrDurability, and
// every later mutation must fail fast instead of appending past the
// (possibly torn) record — which would produce the corrupt-mid-file
// shape replay rejects.
func TestInlineStickyFailure(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddDataset(schema.Dataset{Name: "ok"}); err != nil {
		t.Fatal(err)
	}
	if err := c.wal.f.Close(); err != nil { // writes will now fail
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

// BenchmarkAppendFrame is the per-record encode cost a mutation pays
// under the catalog write lock: one invocation record framed into a
// reused pending buffer.
func BenchmarkAppendFrame(b *testing.B) {
	iv := schema.Invocation{
		ID: "iv-000123-0", Derivation: "dv-5f0c2a9e41b7d3c8a6e2f1b0c9d8e7f6", Site: "site-07", Host: "host-0713",
		Start: time.Unix(1_000_000, 0).UTC(), End: time.Unix(1_000_042, 0).UTC(), OS: "linux", Arch: "x86_64",
		BytesIn: 1 << 30, BytesOut: 1 << 29,
		UsedReplicas:     map[string]string{"lfn://chain-000123/step-0": "rep-000123-0"},
		ProducedReplicas: map[string]string{"lfn://chain-000123/step-1": "rep-000123-1"},
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = appendFrame(buf[:0], codec.RecInvocation, iv); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
