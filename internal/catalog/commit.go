package catalog

import (
	"fmt"
	"os"
	"sync"
	"time"

	"chimera/internal/codec"
)

// Group commit. A write checks and applies its batch of records to the
// in-memory maps under the catalog write lock, encodes one binary/v1
// frame per record straight into the log's pending buffer (frame.go),
// and then waits once for durability *outside* the lock (see
// Catalog.write): one batch, one commit.
// Batches are waiter-led: the waiter that finds records pending and no
// commit in flight writes the whole queue as one batch — a single
// write(2) of the concatenated frames and, with Options.Sync, a single
// fsync shared by every waiter in the batch. Records that arrive while
// that I/O is in flight accumulate into the next batch, which the next
// waiter to wake writes. One slow fsync therefore amortizes across
// however many writers arrived behind it instead of serializing the
// catalog.
//
// A batch is written when its first waiter asks, never on a timer or a
// size target, and there is no background goroutine: every record a
// healthy log enqueues has a waiter (writes wait, the *Async paths
// hand their waits on, Snapshot and Close flush). The write(2) belongs
// to the batch, not to apply time: an append to a page under writeback
// waits for the fsync already in flight (docs/PERF.md, "Write path").

// committer is the group-commit engine for one WAL.
type committer struct {
	f     *os.File
	fsync bool

	mu  sync.Mutex
	did *sync.Cond // broadcast when durability advances or the WAL fails

	// pending accumulates encoded frames for the next batch; spare is
	// the previous batch's buffer, reused to avoid reallocating on every
	// swap.
	pending []byte
	spare   []byte

	count      int    // records in pending
	nextSeq    uint64 // sequence of the last enqueued record
	durable    uint64 // sequence of the last record written (and fsynced)
	committing bool   // a batch write is in flight
	err        error  // sticky: first write/fsync failure poisons the WAL
}

func newCommitter(f *os.File, fsync bool) *committer {
	w := &committer{f: f, fsync: fsync}
	w.did = sync.NewCond(&w.mu)
	return w
}

// enqueue encodes one frame per record into the pending batch, all of
// them or none, and returns the last one's sequence number for a later
// wait. Callers hold the catalog write lock, so records land in the WAL
// in exactly the order the in-memory mutations were applied, and one
// write's frames sit back to back.
func (w *committer) enqueue(recs []codec.Record) (uint64, error) {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	buf := w.pending
	for _, r := range recs {
		var err error
		if buf, err = appendFrame(buf, r.Kind, r.Value); err != nil {
			return 0, fmt.Errorf("catalog: wal encode: %w", err)
		}
	}
	w.pending = buf
	w.count += len(recs)
	w.nextSeq += uint64(len(recs))
	metricWALQueueDepth.Set(float64(w.count))
	metricWALAppend.ObserveSince(start)
	return w.nextSeq, nil
}

// wait blocks until the record with sequence seq is durable (written,
// and fsynced when Options.Sync is set) or the WAL has failed. A waiter
// that finds records pending and no commit in flight leads the next
// batch: it commits everything pending itself.
func (w *committer) wait(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.durable < seq && w.err == nil {
		if w.count > 0 && !w.committing {
			w.commitLocked()
			continue
		}
		w.did.Wait()
	}
	if w.durable >= seq {
		return nil
	}
	return w.err
}

// flush blocks until everything enqueued so far is durable. Snapshot
// uses it (under the catalog lock, so the queue cannot grow) to quiesce
// the WAL before truncating it, and Close to drain it. Once the WAL has
// failed, flush returns the sticky error: the failed batch's records
// never become durable.
func (w *committer) flush() error {
	w.mu.Lock()
	seq := w.nextSeq
	w.mu.Unlock()
	return w.wait(seq)
}

// commitLocked writes everything pending as one batch: one write(2),
// one fsync. Called by a waiter with w.mu held, records pending, no
// commit in flight and no sticky error, so commits never overlap and
// the first failure is the one recorded. The lock is released during
// the I/O so new records accumulate into the next batch meanwhile.
// After a failure nothing is written again — appending past a hole
// would corrupt replay order.
func (w *committer) commitLocked() {
	buf, n, endSeq := w.pending, w.count, w.nextSeq
	w.pending = w.spare[:0]
	w.count = 0
	w.committing = true
	metricWALQueueDepth.Set(0)
	w.mu.Unlock()

	metricWALBatchRecords.Observe(float64(n))
	metricWALBatchBytes.Observe(float64(len(buf)))
	var err error
	if _, werr := w.f.Write(buf); werr != nil {
		err = fmt.Errorf("%w: wal append: %v", ErrDurability, werr)
	} else if w.fsync {
		start := time.Now()
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("%w: wal sync: %v", ErrDurability, serr)
		} else {
			metricWALBatchFsync.ObserveSince(start)
		}
	}

	w.mu.Lock()
	w.spare = buf[:0]
	w.committing = false
	if err == nil {
		w.durable = endSeq
	} else {
		w.err = err
	}
	w.did.Broadcast()
}

// failure returns the sticky WAL error without blocking.
func (w *committer) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
