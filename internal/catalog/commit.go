package catalog

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"chimera/internal/obs"
)

// Group commit. Mutations validate and apply to the in-memory maps
// under the catalog write lock, enqueue one encoded record per logged
// operation, and then wait for durability *outside* the lock (see
// Catalog.mutate). The committer drains everything queued as one
// batch: a single write(2) of the concatenated records, and — with
// Options.Sync — a single fsync shared by every waiter in the batch.
// One slow fsync therefore no longer serializes the whole catalog; it
// amortizes across however many writers arrived while the previous
// batch was in flight.
//
// Commits are leader-assisted: the dedicated committer goroutine is
// the backstop (it guarantees progress and performs the final drain on
// Close), but a waiter that finds the queue idle commits its own batch
// inline, so a single uncontended writer pays no goroutine round trip
// on top of the write+fsync it already paid before group commit.

// committer is the group-commit engine for one WAL.
type committer struct {
	f        *os.File
	fsync    bool
	maxBatch int
	maxDelay time.Duration

	mu   sync.Mutex
	work *sync.Cond // signaled when records arrive or close begins
	did  *sync.Cond // broadcast when durability advances or the WAL fails

	// pending accumulates encoded records (newline-terminated) for the
	// next batch; spare is the previous batch's buffer, reused to avoid
	// reallocating on every swap.
	pending []byte
	spare   []byte
	scratch bytes.Buffer // per-record encode buffer, reused
	enc     *json.Encoder

	count      int    // records in pending
	waiters    int    // goroutines blocked in wait()
	nextSeq    uint64 // sequence of the last enqueued record
	durable    uint64 // sequence of the last record written (and fsynced)
	committing bool   // a batch write (or its accumulation window) is in flight
	closing    bool
	closeCh    chan struct{} // closed when closing begins; interrupts the delay window
	err        error         // sticky: first write/fsync failure poisons the WAL

	// Per-shard batch counters (nil until setShardMetrics): the ratio
	// records/batches is this shard WAL's batch occupancy.
	shardBatches *obs.Counter
	shardRecords *obs.Counter

	// fsyncEWMA smooths recent fsync latencies. The MaxDelay batch
	// window only pays off when fsync costs much more than the window
	// itself (spinning disks, network filesystems); on storage where
	// fsync is cheaper than the delay, holding the batch open just adds
	// latency, so commitLocked skips it.
	fsyncEWMA time.Duration

	done chan struct{} // closed when the committer goroutine exits
}

func newCommitter(f *os.File, fsync bool, maxBatch int, maxDelay time.Duration) *committer {
	w := &committer{
		f:        f,
		fsync:    fsync,
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		closeCh:  make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.work = sync.NewCond(&w.mu)
	w.did = sync.NewCond(&w.mu)
	w.enc = json.NewEncoder(&w.scratch)
	go w.run()
	return w
}

// setShardMetrics wires the committer to its shard's per-WAL batch
// counters. Called once, before the committer sees traffic.
func (w *committer) setShardMetrics(label string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.shardBatches = metricShardBatches.With(label)
	w.shardRecords = metricShardBatchRecords.With(label)
}

// enqueue encodes one record into the pending batch and returns its
// sequence number for a later wait. Callers hold the catalog write
// lock, so records land in the WAL in exactly the order the in-memory
// mutations were applied.
func (w *committer) enqueue(op opKind, v any) (uint64, error) {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	w.scratch.Reset()
	if err := w.enc.Encode(walEnvelope{Op: op, Data: v}); err != nil {
		return 0, fmt.Errorf("catalog: wal encode: %w", err)
	}
	w.pending = append(w.pending, w.scratch.Bytes()...)
	w.count++
	w.nextSeq++
	metricWALQueueDepth.Set(float64(w.count))
	metricWALAppend.ObserveSince(start)
	w.work.Signal()
	return w.nextSeq, nil
}

// wait blocks until the record with sequence seq is durable (written,
// and fsynced when Options.Sync is set) or the WAL has failed. If the
// queue is idle it assists: the caller becomes the batch leader and
// commits pending records itself.
func (w *committer) wait(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.waiters++
	defer func() { w.waiters-- }()
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
// uses it (under the catalog lock, so the queue cannot grow) to
// quiesce the WAL before truncating it.
func (w *committer) flush() error {
	w.mu.Lock()
	seq := w.nextSeq
	w.mu.Unlock()
	return w.wait(seq)
}

// close drains the queue, stops the committer goroutine, and returns
// the sticky WAL error, if any. The file itself is closed by the
// caller afterwards.
func (w *committer) close() error {
	w.mu.Lock()
	if !w.closing {
		w.closing = true
		close(w.closeCh)
	}
	w.work.Signal()
	w.mu.Unlock()
	<-w.done
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// run is the dedicated committer goroutine: it guarantees progress
// when no waiter assists and performs the final drain at close.
func (w *committer) run() {
	defer close(w.done)
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		for w.count == 0 || w.committing {
			if w.closing && w.count == 0 && !w.committing {
				return
			}
			w.work.Wait()
		}
		w.commitLocked()
	}
}

// commitLocked writes everything pending as one batch: one write(2),
// one fsync. Called with w.mu held; the lock is released during the
// I/O so new records accumulate into the next batch meanwhile. After a
// sticky failure the batch is discarded — appending past a hole would
// corrupt replay order.
func (w *committer) commitLocked() {
	if w.err != nil {
		w.pending = w.pending[:0]
		w.count = 0
		metricWALQueueDepth.Set(0)
		w.did.Broadcast()
		return
	}
	if w.count == 0 {
		return
	}
	if w.maxDelay > 0 && w.waiters > 1 && w.count < w.maxBatch && !w.closing &&
		w.fsyncEWMA > 4*w.maxDelay {
		// Contended, and fsync is expensive enough that holding the
		// batch open for stragglers costs less than the fsync it saves.
		// A lone writer never waits here, and on storage where fsync is
		// cheaper than the window (fast SSDs, tmpfs) the in-flight
		// commit itself is the accumulation window, so we skip straight
		// to the write.
		//
		// The window is part of the commit: committing stays set across
		// the sleep so no other goroutine starts a second commit and
		// swaps pending into spare while this batch is still headed for
		// the file. close() interrupts the window via closeCh so a batch
		// opened just before shutdown does not hold Close for the full
		// delay — it commits immediately, and the final drain proceeds.
		w.committing = true
		w.mu.Unlock()
		t := time.NewTimer(w.maxDelay)
		select {
		case <-t.C:
		case <-w.closeCh:
			t.Stop()
		}
		w.mu.Lock()
		w.committing = false
		// While committing was held nothing else could commit, so err
		// cannot have been set and the queue cannot have drained; checked
		// anyway so an early return never strands a waiter.
		if w.err != nil || w.count == 0 {
			w.did.Broadcast()
			w.work.Signal()
			return
		}
	}
	buf, n, endSeq := w.pending, w.count, w.nextSeq
	w.pending = w.spare[:0]
	w.count = 0
	w.committing = true
	metricWALQueueDepth.Set(0)
	w.mu.Unlock()

	metricWALBatchRecords.Observe(float64(n))
	metricWALBatchBytes.Observe(float64(len(buf)))
	if w.shardBatches != nil {
		w.shardBatches.Inc()
		w.shardRecords.Add(uint64(n))
	}
	var err error
	if _, werr := w.f.Write(buf); werr != nil {
		err = fmt.Errorf("%w: wal append: %v", ErrDurability, werr)
	}
	var fsyncTook time.Duration
	if err == nil && w.fsync {
		start := time.Now()
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("%w: wal sync: %v", ErrDurability, serr)
		} else {
			fsyncTook = time.Since(start)
			metricWALBatchFsync.Observe(fsyncTook.Seconds())
		}
	}

	w.mu.Lock()
	if fsyncTook > 0 {
		if w.fsyncEWMA == 0 {
			w.fsyncEWMA = fsyncTook
		} else {
			w.fsyncEWMA = (3*w.fsyncEWMA + fsyncTook) / 4
		}
	}
	w.spare = buf[:0]
	w.committing = false
	if err != nil {
		if w.err == nil {
			w.err = err
		}
	} else {
		w.durable = endSeq
	}
	w.did.Broadcast()
	w.work.Signal()
}

// failure returns the sticky WAL error without blocking.
func (w *committer) failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}
