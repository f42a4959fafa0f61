package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"chimera/internal/codec"
	"chimera/internal/schema"
)

// Change journal: every mutation that reaches the put*/drop* funnel (or
// the types/compat side paths) draws the next value of the catalog's
// mutation sequence and appends one entry to the bounded in-memory
// journal. ChangesSince folds the retained tail into a delta Export —
// the incremental sync protocol federated indexes use to avoid
// re-fetching a member's full catalog every crawl pass.
//
// The wire cursor is the pair (instance, seq). A delta request is
// serviceable exactly when the journal still retains every entry above
// `since`; a caller further behind receives a full export — bounded
// memory, never a silently incomplete delta.

// DefaultJournalWindow is the number of journal entries retained
// unless SetJournalWindow overrides it.
const DefaultJournalWindow = 4096

// Instance tokens let a client that cached a sequence against one
// Catalog value never mistake a different catalog for the one it
// synced with. A bare counter is not enough: it restarts with the
// process, so a restarted daemon would hand out the same token while
// its replayed journal numbers history differently (snapshot replay is
// sorted, not chronological) — a stale cursor could then silently
// under-ship. Seeding with the process start time makes tokens unique
// across restarts too; the counter keeps them unique within a process.
var (
	journalEpoch     = uint64(time.Now().UnixNano())
	journalInstances atomic.Uint64
)

func newJournalInstance() uint64 { return journalEpoch + journalInstances.Add(1) }

type journalKind uint8

const (
	jDataset journalKind = iota
	jTransformation
	jDerivation
	jInvocation
	jReplica
	jTypes
	jCompat
)

// journalEntry records one mutation under the sequence it drew.
type journalEntry struct {
	seq  uint64
	kind journalKind
	id   string
	del  bool
}

// noteJournal draws the next catalog sequence and appends one journal
// entry. Callers hold the write lock (or own the catalog exclusively,
// as during Open). The journal is allowed to grow to twice the window
// before compacting so trimming stays amortized O(1) per mutation;
// trimmed remembers the highest dropped sequence — the delta floor.
func (c *Catalog) noteJournal(k journalKind, id string, del bool) {
	seq := c.jseq.Add(1)
	c.journal = append(c.journal, journalEntry{seq: seq, kind: k, id: id, del: del})
	if len(c.journal) >= 2*c.jwindow {
		c.trimJournal(c.jwindow)
	}
	metricJournalEntries.Set(float64(len(c.journal)))
}

// trimJournal keeps the newest n entries and raises the floor to the
// newest one dropped.
func (c *Catalog) trimJournal(n int) {
	if len(c.journal) <= n {
		return
	}
	c.trimmed = c.journal[len(c.journal)-n-1].seq
	kept := copy(c.journal, c.journal[len(c.journal)-n:])
	c.journal = c.journal[:kept]
}

// JournalState is the journal's live cursor and occupancy: the sync
// position (Instance, Seq) a delta client would cite, the delta floor
// (Floor: the highest sequence trimmed away; deltas need since >=
// Floor), and how much of the retained window is in use. Occupancy at
// 1.0 means the next lagging crawler may be forced to a full export.
type JournalState struct {
	Instance uint64  `json:"instance"`
	Seq      uint64  `json:"seq"`
	Floor    uint64  `json:"floor"`
	Window   int     `json:"window"`
	Entries  int     `json:"entries"`
	Occ      float64 `json:"occupancy"`
}

// JournalState reports the change journal's cursor and occupancy.
func (c *Catalog) JournalState() JournalState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := JournalState{
		Instance: c.jinstance,
		Seq:      c.jseq.Load(),
		Floor:    c.trimmed,
		Window:   c.jwindow,
		Entries:  len(c.journal),
	}
	// The journal may run ahead to 2x the window before compaction.
	st.Occ = min(float64(st.Entries)/float64(st.Window), 1)
	return st
}

// Seq returns the catalog's current mutation sequence. A caller holding
// (instance, seq) from a previous Export or Delta can ask ChangesSince
// for everything that happened after it.
func (c *Catalog) Seq() uint64 { return c.jseq.Load() }

// Instance returns the catalog's instance token. Sequences are only
// comparable between identical instances; a reopened catalog gets a
// fresh token, forcing clients back to a full export.
func (c *Catalog) Instance() uint64 { return c.jinstance }

// SetJournalWindow bounds how many journal entries the catalog retains
// (n <= 0 restores DefaultJournalWindow). A smaller window trades delta
// coverage for memory: callers further behind than the window receive
// a full export.
func (c *Catalog) SetJournalWindow(n int) {
	if n <= 0 {
		n = DefaultJournalWindow
	}
	c.lock()
	defer c.mu.Unlock()
	c.jwindow = n
	c.trimJournal(n)
}

// Tombstone records a deletion inside a delta export.
type Tombstone = codec.Tombstone

// Delta is an incremental export: the objects mutated after a sync
// cursor, plus tombstones for objects that no longer exist
// (codec.Delta).
type Delta = codec.Delta

// ChangesSince returns the mutations after sequence since, observed by
// a caller that last synced instance, under the catalog's read lock:
// the journal tail past since names the touched objects, and the delta
// ships each one's *current* value (or a tombstone), so repeated
// entries for one object collapse. The fast path (caller already
// current) allocates nothing but the Delta header. The caller receives
// a full export when it is at sequence zero, cites a different
// instance, claims a future sequence, or has fallen behind the
// journal window.
func (c *Catalog) ChangesSince(since, instance uint64) Delta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seq := c.jseq.Load()
	d := Delta{Instance: c.jinstance, Since: since, Seq: seq}
	if instance == c.jinstance && since == seq {
		return d
	}
	if instance != c.jinstance || since == 0 || since > seq || since < c.trimmed {
		d.Full = true
		d.Export = c.exportLocked()
		return d
	}

	// Entries are seq-ascending: binary-search the first past since,
	// then collect the distinct objects touched.
	start := sort.Search(len(c.journal), func(i int) bool { return c.journal[i].seq > since })
	var datasets, trs, dvs, ivs, reps map[string]struct{}
	mark := func(m *map[string]struct{}, id string) {
		if *m == nil {
			*m = make(map[string]struct{})
		}
		(*m)[id] = struct{}{}
	}
	types, compat := false, false
	for _, e := range c.journal[start:] {
		switch e.kind {
		case jDataset:
			mark(&datasets, e.id)
		case jTransformation:
			mark(&trs, e.id)
		case jDerivation:
			mark(&dvs, e.id)
		case jInvocation:
			mark(&ivs, e.id)
		case jReplica:
			mark(&reps, e.id)
		case jTypes:
			types = true
		case jCompat:
			compat = true
		}
	}
	for name := range datasets {
		if ds, ok := c.datasets[name]; ok {
			d.Export.Datasets = append(d.Export.Datasets, ds)
		}
	}
	for ref := range trs {
		if tr, ok := c.transformations[ref]; ok {
			d.Export.Transformations = append(d.Export.Transformations, tr)
		}
	}
	for id := range dvs {
		if dv, ok := c.derivations[id]; ok {
			d.Export.Derivations = append(d.Export.Derivations, dv)
		}
	}
	for id := range ivs {
		if iv, ok := c.invocations[id]; ok {
			d.Export.Invocations = append(d.Export.Invocations, iv)
		}
	}
	for id := range reps {
		if r, ok := c.replicas[id]; ok {
			d.Export.Replicas = append(d.Export.Replicas, r)
		} else {
			d.Tombstones = append(d.Tombstones, Tombstone{Kind: "replica", ID: id})
		}
	}
	if types {
		d.Export.Types = c.types.Clone()
	}
	if compat {
		d.Export.Compat = append([]schema.CompatibilityAssertion(nil), c.compat...)
	}
	d.Export.Sort()
	sort.Slice(d.Tombstones, func(i, j int) bool { return d.Tombstones[i].ID < d.Tombstones[j].ID })
	return d
}

// ApplyDelta folds a delta produced by another catalog's ChangesSince
// into c and returns how many of its records it had to skip. It is the
// incremental counterpart of ImportTolerant: folding a source's history
// delta by delta and then exporting equals one ImportTolerant of the
// source's final export, byte for byte, as long as nothing was skipped
// — a caller that sees skipped > 0 can no longer rely on that and should
// re-import. (A Full delta carries no tombstones for what the source
// lost, so it is only equivalent on an empty catalog.)
//
// Records apply in dependency order, each through its own mutation, so
// a concurrent reader sees a prefix of the delta with no dangling
// reference: types merge; transformations, derivations and invocations
// are immutable at the source and add if absent; datasets upsert but
// keep c's own producer linkage, which c's derivations establish (the
// same reason ImportTolerant clears CreatedBy); replicas upsert, since
// an epoch re-stamp re-ships them; tombstones remove, tolerating a
// replica that was added and removed between two deltas.
func (c *Catalog) ApplyDelta(d Delta) (skipped int) {
	if d.Export.Types != nil {
		c.mergeTypes(d.Export.Types)
	}
	for _, tr := range d.Export.Transformations {
		if err := c.AddTransformation(tr); err != nil {
			skipped++
		}
	}
	for _, ds := range d.Export.Datasets {
		if err := c.upsertDataset(ds); err != nil {
			skipped++
		}
	}
	for _, dv := range d.Export.Derivations {
		if _, err := c.AddDerivation(dv); err != nil && !errors.Is(err, ErrDuplicate) {
			skipped++
		}
	}
	for _, iv := range d.Export.Invocations {
		if err := c.AddInvocation(iv); err != nil && !errors.Is(err, ErrExists) {
			skipped++
		}
	}
	// Tombstones before replicas: older sources can ship one ID as both
	// (a replica removed and registered again under another dataset),
	// and the live record wins.
	for _, t := range d.Tombstones {
		if t.Kind != "replica" {
			skipped++
			continue
		}
		if err := c.RemoveReplica(t.ID); err != nil && !errors.Is(err, ErrNotFound) {
			skipped++
		}
	}
	for _, r := range d.Export.Replicas {
		if err := c.upsertReplica(r); err != nil {
			skipped++
		}
	}
	for _, a := range d.Export.Compat {
		if err := c.AssertCompatibility(a); err != nil {
			skipped++
		}
	}
	return skipped
}

// upsertDataset installs ds or replaces the record under its name,
// keeping the CreatedBy the catalog already holds ("" for a new name;
// AddDerivation sets it when the producer arrives).
func (c *Catalog) upsertDataset(ds schema.Dataset) (err error) {
	opUpdate.Inc()
	defer func() { err = countErr("update_dataset", err) }()
	if err := ds.Validate(); err != nil {
		return err
	}
	return c.mutate(func() error {
		if err := c.types.CheckType(ds.Type); err != nil {
			return fmt.Errorf("%w: dataset %q: %v", ErrType, ds.Name, err)
		}
		old, ok := c.datasets[ds.Name]
		ds.CreatedBy = old.CreatedBy
		if ok {
			if ds.Epoch < old.Epoch {
				return fmt.Errorf("%w: dataset %q epoch moved backwards (%d -> %d)", ErrConflict, ds.Name, old.Epoch, ds.Epoch)
			}
			if equalJSON(old, ds) {
				return nil
			}
		}
		c.putDataset(ds)
		return c.logOp(opDataset, ds)
	})
}

// upsertReplica installs r or replaces the replica registered under its
// ID: in place for an epoch re-stamp, by drop-and-add when the source
// removed the replica and registered the ID again under another
// dataset.
func (c *Catalog) upsertReplica(r schema.Replica) (err error) {
	opAddReplica.Inc()
	defer func() { err = countErr("add_replica", err) }()
	if err := r.Validate(); err != nil {
		return err
	}
	return c.mutate(func() error {
		if _, ok := c.datasets[r.Dataset]; !ok {
			return fmt.Errorf("%w: replica %q cites unknown dataset %q", ErrNotFound, r.ID, r.Dataset)
		}
		if old, ok := c.replicas[r.ID]; ok {
			if equalJSON(old, r) {
				return nil
			}
			if old.Dataset != r.Dataset {
				c.dropReplica(r.ID)
				if err := c.logOp(opRemoveReplica, r.ID); err != nil {
					return err
				}
			}
		}
		c.putReplica(r)
		return c.logOp(opReplica, r)
	})
}
