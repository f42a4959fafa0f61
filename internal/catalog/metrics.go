package catalog

import (
	"errors"

	"chimera/internal/codec"
	"chimera/internal/obs"
)

// Catalog metrics. Series are resolved once at init so the mutation
// paths pay a single atomic add; WAL and snapshot latencies go to
// fixed-bucket histograms (seconds).
var (
	countBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096}
	byteBuckets  = []float64{256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304}
)

var (
	metricOps = obs.Default.CounterVec("vdc_catalog_ops_total",
		"Catalog mutations by operation.", "op")
	metricOpErrors = obs.Default.CounterVec("vdc_catalog_op_errors_total",
		"Catalog mutations that returned an error, by operation.", "op")

	metricWALAppend = obs.Default.Histogram("vdc_wal_append_seconds",
		"Latency of encoding one write's WAL records into the pending group-commit batch.", obs.TimeBuckets)

	// Group-commit series; see docs/PERF.md.
	metricWALBatchRecords = obs.Default.Histogram("vdc_wal_batch_records",
		"Records per group-commit batch.", countBuckets)
	metricWALBatchBytes = obs.Default.Histogram("vdc_wal_batch_bytes",
		"Encoded bytes per group-commit batch.", byteBuckets)
	metricWALBatchFsync = obs.Default.Histogram("vdc_wal_batch_fsync_seconds",
		"Latency of the one fsync each group-commit batch issues (only with Options.Sync).", obs.TimeBuckets)
	metricWALQueueDepth = obs.Default.Gauge("vdc_wal_queue_depth",
		"Records currently waiting in the group-commit queue.")
	metricSnapshot = obs.Default.Histogram("vdc_catalog_snapshot_seconds",
		"Latency of snapshot compaction (export + write + WAL truncate).", obs.TimeBuckets)
	metricJournalEntries = obs.Default.Gauge("vdc_journal_entries",
		"Change-journal entries currently retained (most recently mutated catalog).")

	metricLockWait = obs.Default.Histogram("vdc_catalog_shard_lock_wait_seconds",
		"Time a mutation spends acquiring the catalog write lock, including waiting for open Views to close (contention indicator).", obs.TimeBuckets)

	opUpdate    = metricOps.With("update_dataset")
	opBumpEpoch = metricOps.With("bump_epoch")
	opSnapshot  = metricOps.With("snapshot")

	// dedupHits counts derivation registrations answered by an existing
	// canonical signature — the paper's "computation already performed".
	dedupHits = obs.Default.Counter("vdc_catalog_derivation_dedup_total",
		"Derivation registrations that matched an existing canonical signature.")
)

// WALBatchStats reports the cumulative group-commit batch count and the
// total records those batches carried (the vdc_wal_batch_records
// histogram). The delta ratio over an interval is the WAL's
// amortization factor — mean records per write+fsync; the executor's
// tests use it to prove concurrent workflow completions share commits.
func WALBatchStats() (batches uint64, records float64) {
	return metricWALBatchRecords.Count(), metricWALBatchRecords.Sum()
}

// kindOps names each record kind's operation in vdc_catalog_ops_total.
var kindOps = [...]struct {
	ops  *obs.Counter
	name string
}{
	codec.RecType:           {metricOps.With("define_type"), "define_type"},
	codec.RecDataset:        {metricOps.With("add_dataset"), "add_dataset"},
	codec.RecTransformation: {metricOps.With("add_transformation"), "add_transformation"},
	codec.RecDerivation:     {metricOps.With("add_derivation"), "add_derivation"},
	codec.RecInvocation:     {metricOps.With("add_invocation"), "add_invocation"},
	codec.RecReplica:        {metricOps.With("add_replica"), "add_replica"},
	codec.RecRemoveReplica:  {metricOps.With("remove_replica"), "remove_replica"},
	codec.RecCompat:         {metricOps.With("assert_compat"), "assert_compat"},
}

// count records one record's outcome under its kind's operation and
// passes err through. A derivation's ErrDuplicate is a dedup hit — the
// paper's "computation already performed" — not a failure.
func count(k codec.RecordKind, err error) error {
	op := kindOps[k]
	op.ops.Inc()
	if errors.Is(err, ErrDuplicate) {
		dedupHits.Inc()
		return err
	}
	return countErr(op.name, err)
}

// countErr bumps the per-op error counter on failure and passes the
// error through, so call sites stay one-liners.
func countErr(op string, err error) error {
	if err != nil {
		metricOpErrors.With(op).Inc()
	}
	return err
}
