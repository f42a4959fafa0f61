package catalog

import (
	"time"

	"chimera/internal/schema"
)

// One lock, one log, one journal. The catalog keeps its object state
// (catalogState, embedded in Catalog) under one RWMutex. Every write is
// one batch of records (batch.go): checked, then applied to that state
// under one hold of the write lock, appended to the one WAL (wal.bin,
// binary/v1 frames) and journaled in the one change journal, whose
// sequence (Catalog.jseq) is the one mutation version the query cache
// keys on. A reader sees all of a batch or none of it. The fsync
// happens after the lock is released (commit.go), one per batch or
// fewer, as concurrent writers share it.
//
// A View (view.go) holds the read lock until it is closed. A writer
// therefore waits for the Views open when it arrives, and a View opened
// while a writer waits queues behind it (Go's RWMutex admits no new
// reader past a waiting writer) — which is why no goroutine may take the
// catalog lock while it holds an open View.
//
// Open replays one layout, snapshot.bin then wal.bin, through apply,
// the function a batch applies with. Directories an earlier build wrote
// — JSON-lines logs, one per shard for the former sharded catalog — are
// converted offline by `chimera migrate` (internal/migrate).

// catalogState is the catalog's object state: everything a read needs,
// nothing a read mutates.
type catalogState struct {
	datasets        map[string]schema.Dataset
	transformations map[string]schema.Transformation // key: canonical ref
	derivations     map[string]schema.Derivation     // key: ID
	invocations     map[string]schema.Invocation
	replicas        map[string]schema.Replica
	compat          []schema.CompatibilityAssertion

	// Provenance indexes.
	producerOf  map[string]string   // dataset -> producing derivation ID
	consumersOf map[string][]string // dataset -> derivation IDs reading it
	outputsOf   map[string][]string // derivation ID -> output dataset names
	inputsOf    map[string][]string // derivation ID -> input dataset names

	// Secondary indexes.
	replicasByDataset map[string][]string // dataset -> replica IDs
	invocationsByDV   map[string][]string // derivation ID -> invocation IDs
	versionsOf        map[string][]string // "ns::name" -> versions

	// Discovery indexes (index.go), maintained incrementally by the
	// put*/drop* helpers every mutation path funnels through.
	idx indexes
}

func newCatalogState() catalogState {
	return catalogState{
		datasets:          make(map[string]schema.Dataset),
		transformations:   make(map[string]schema.Transformation),
		derivations:       make(map[string]schema.Derivation),
		invocations:       make(map[string]schema.Invocation),
		replicas:          make(map[string]schema.Replica),
		producerOf:        make(map[string]string),
		consumersOf:       make(map[string][]string),
		outputsOf:         make(map[string][]string),
		inputsOf:          make(map[string][]string),
		replicasByDataset: make(map[string][]string),
		invocationsByDV:   make(map[string][]string),
		versionsOf:        make(map[string][]string),
		idx:               newIndexes(),
	}
}

// lock write-locks the catalog and reports how long acquisition took —
// including any wait for open Views to close.
func (c *Catalog) lock() {
	start := time.Now()
	c.mu.Lock()
	metricLockWait.ObserveSince(start)
}
