package catalog

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"chimera/internal/schema"
)

// Change journal: every mutation that reaches the put*/drop* funnel (or
// the types/compat side paths) draws the next value of the
// catalog-wide mutation sequence and appends one entry to its home
// shard's bounded in-memory journal. ChangesSince merges the retained
// tails into a delta Export — the incremental sync protocol federated
// indexes use to avoid re-fetching a member's full catalog every crawl
// pass.
//
// The wire cursor stays the single (instance, seq) pair PR 5 shipped:
// the sequence is global (one atomic counter), each shard's journal
// holds the strictly-ascending subsequence of entries for its own
// objects, and a delta request is serviceable exactly when every shard
// still retains all entries above `since`. One overflowing shard
// therefore degrades the response to a full export — bounded memory,
// never a silently incomplete delta. The per-shard cursor vector
// (ShardJournalStates) is introspection, not protocol.

// DefaultJournalWindow is the number of journal entries retained per
// shard unless SetJournalWindow overrides it.
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

// journalEntry records one mutation. seq is the catalog-wide sequence
// the mutation drew; within one shard's journal entries are strictly
// seq-ascending (with gaps where other shards drew numbers).
type journalEntry struct {
	seq  uint64
	kind journalKind
	id   string
	del  bool
}

// noteJournal draws the next catalog sequence and appends one entry to
// this shard's journal. Callers hold s.mu (or own the catalog
// exclusively, as during Open). The journal is allowed to grow to
// twice the window before compacting so trimming stays amortized O(1)
// per mutation; trimmed remembers the highest dropped sequence — the
// shard's delta floor.
func (s *cshard) noteJournal(c *Catalog, k journalKind, id string, del bool) {
	seq := c.jseq.Add(1)
	s.journal = append(s.journal, journalEntry{seq: seq, kind: k, id: id, del: del})
	if w := s.jwindow; len(s.journal) >= 2*w {
		s.trimmed = s.journal[len(s.journal)-w-1].seq
		keep := s.journal[len(s.journal)-w:]
		n := copy(s.journal, keep)
		s.journal = s.journal[:n]
	}
	metricJournalEntries.Set(float64(len(s.journal)))
	s.gJournal.Set(float64(len(s.journal)))
	s.gObjects.Set(float64(s.objectCount()))
}

// JournalState is the journal's live cursor and occupancy: the sync
// position (Instance, Seq) a delta client would cite, plus how much of
// the retained window is in use. For a sharded catalog Entries sums
// the shards and Occ is the worst shard's occupancy — occupancy at
// 1.0 means some shard may force the next lagging crawler to a full
// export.
type JournalState struct {
	Instance uint64  `json:"instance"`
	Seq      uint64  `json:"seq"`
	Window   int     `json:"window"`
	Entries  int     `json:"entries"`
	Occ      float64 `json:"occupancy"`
}

// JournalState reports the change journal's cursor and occupancy.
func (c *Catalog) JournalState() JournalState {
	c.rlockAll()
	defer c.runlockAll()
	st := JournalState{
		Instance: c.jinstance,
		Seq:      c.jseq.Load(),
	}
	for _, s := range c.shards {
		st.Window = s.jwindow
		st.Entries += len(s.journal)
		if s.jwindow > 0 {
			occ := float64(len(s.journal)) / float64(s.jwindow)
			if occ > 1 {
				occ = 1 // a journal may run ahead to 2x before compaction
			}
			if occ > st.Occ {
				st.Occ = occ
			}
		}
	}
	return st
}

// ShardJournalState is one shard's slice of the journal: its delta
// floor (the highest sequence it has dropped), the sequence of its
// most recent entry, and its window occupancy. The vector of these —
// one per shard — is the sharded catalog's sync cursor in full detail;
// /debug/vdc reports it so an operator can see which shard's overflow
// is pushing crawlers to full exports.
type ShardJournalState struct {
	Shard   int     `json:"shard"`
	Seq     uint64  `json:"seq"`   // last sequence journaled on this shard
	Floor   uint64  `json:"floor"` // highest sequence trimmed away; deltas need since >= floor
	Entries int     `json:"entries"`
	Occ     float64 `json:"occupancy"`
}

// ShardJournalStates reports every shard's journal cursor.
func (c *Catalog) ShardJournalStates() []ShardJournalState {
	c.rlockAll()
	defer c.runlockAll()
	out := make([]ShardJournalState, len(c.shards))
	for i, s := range c.shards {
		st := ShardJournalState{Shard: i, Seq: s.trimmed, Floor: s.trimmed, Entries: len(s.journal)}
		if len(s.journal) > 0 {
			st.Seq = s.journal[len(s.journal)-1].seq
		}
		if s.jwindow > 0 {
			st.Occ = float64(len(s.journal)) / float64(s.jwindow)
			if st.Occ > 1 {
				st.Occ = 1
			}
		}
		out[i] = st
	}
	return out
}

// Seq returns the catalog's current mutation sequence. A caller holding
// (instance, seq) from a previous Export or Delta can ask ChangesSince
// for everything that happened after it.
func (c *Catalog) Seq() uint64 { return c.jseq.Load() }

// Instance returns the catalog's instance token. Sequences are only
// comparable between identical instances; a reopened catalog gets a
// fresh token, forcing clients back to a full export.
func (c *Catalog) Instance() uint64 { return c.jinstance }

// SetJournalWindow bounds how many journal entries each shard retains
// (n <= 0 restores DefaultJournalWindow). A smaller window trades
// delta coverage for memory: callers further behind than any shard's
// window receive a full export.
func (c *Catalog) SetJournalWindow(n int) {
	if n <= 0 {
		n = DefaultJournalWindow
	}
	set := c.allSet()
	c.lockSet(set)
	defer c.unlockSet(set)
	for _, s := range c.shards {
		s.jwindow = n
		if len(s.journal) > n {
			s.trimmed = s.journal[len(s.journal)-n-1].seq
			keep := s.journal[len(s.journal)-n:]
			cp := copy(s.journal, keep)
			s.journal = s.journal[:cp]
		}
	}
}

// Tombstone records a deletion inside a delta export. The only
// removable object class today is the replica.
type Tombstone struct {
	Kind string `json:"kind"`
	ID   string `json:"id"`
}

// Delta is an incremental export: the current value of every object
// mutated after Since, plus tombstones for objects that no longer
// exist. Full marks a degraded response carrying the complete catalog
// (the caller was behind some shard's journal window, ahead of the
// sequence, at sequence zero, or synced against a different instance).
// Export.Types and Export.Compat are nil unless the registry or the
// assertion list changed.
type Delta struct {
	// Instance identifies the catalog the sequence numbers belong to.
	Instance uint64 `json:"instance"`
	// Since echoes the request's sequence.
	Since uint64 `json:"since"`
	// Seq is the catalog sequence this delta brings the caller up to.
	Seq uint64 `json:"seq"`
	// Full marks Export as the complete catalog state.
	Full       bool        `json:"full,omitempty"`
	Export     Export      `json:"export"`
	Tombstones []Tombstone `json:"tombstones,omitempty"`
}

// Empty reports whether the delta carries no changes at all — the
// "unchanged member" fast path of a federation crawl.
func (d Delta) Empty() bool {
	return !d.Full &&
		len(d.Export.Datasets) == 0 &&
		len(d.Export.Transformations) == 0 &&
		len(d.Export.Derivations) == 0 &&
		len(d.Export.Invocations) == 0 &&
		len(d.Export.Replicas) == 0 &&
		len(d.Export.Compat) == 0 &&
		d.Export.Types == nil &&
		len(d.Tombstones) == 0
}

// ChangesSince returns the mutations after sequence since, observed by
// a caller that last synced instance. The read is scatter-gather: all
// shard read locks are held (ascending order) while each shard's
// journal tail is scanned and its touched objects resolved against
// that same shard's maps, then the per-shard pieces merge under one
// deterministic sort. The fast path (caller already current) allocates
// nothing but the Delta header. The caller receives a full export when
// it is at sequence zero, cites a different instance, claims a future
// sequence, or has fallen behind any shard's journal window.
func (c *Catalog) ChangesSince(since, instance uint64) Delta {
	c.rlockAll()
	defer c.runlockAll()
	seq := c.jseq.Load()
	d := Delta{Instance: c.jinstance, Since: since, Seq: seq}
	if instance == c.jinstance && since == seq {
		return d
	}
	full := instance != c.jinstance || since == 0 || since > seq
	if !full {
		for _, s := range c.shards {
			if since < s.trimmed {
				full = true
				break
			}
		}
	}
	if full {
		d.Full = true
		d.Export = c.exportLocked()
		return d
	}

	types, compat := false, false
	for _, s := range c.shards {
		// Entries are seq-ascending within a shard: binary-search the
		// first entry past since, then collect the distinct objects
		// touched. The delta ships each one's *current* value (or a
		// tombstone), so repeated entries for one object collapse.
		start := sort.Search(len(s.journal), func(i int) bool { return s.journal[i].seq > since })
		if start == len(s.journal) {
			continue
		}
		var datasets, trs, dvs, ivs, reps map[string]struct{}
		mark := func(m *map[string]struct{}, id string) {
			if *m == nil {
				*m = make(map[string]struct{})
			}
			(*m)[id] = struct{}{}
		}
		for _, e := range s.journal[start:] {
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

		// Every journal entry is noted on its object's home shard, so
		// the ids resolve against this shard's own maps.
		for name := range datasets {
			if ds, ok := s.datasets[name]; ok {
				d.Export.Datasets = append(d.Export.Datasets, ds)
			}
		}
		for ref := range trs {
			if tr, ok := s.transformations[ref]; ok {
				d.Export.Transformations = append(d.Export.Transformations, tr)
			}
		}
		for id := range dvs {
			if dv, ok := s.derivations[id]; ok {
				d.Export.Derivations = append(d.Export.Derivations, dv)
			}
		}
		for id := range ivs {
			if iv, ok := s.invocations[id]; ok {
				d.Export.Invocations = append(d.Export.Invocations, iv)
			}
		}
		for id := range reps {
			if r, ok := s.replicas[id]; ok {
				d.Export.Replicas = append(d.Export.Replicas, r)
			} else {
				d.Tombstones = append(d.Tombstones, Tombstone{Kind: "replica", ID: id})
			}
		}
	}
	if types {
		d.Export.Types = c.types.Clone()
	}
	if compat {
		d.Export.Compat = append([]schema.CompatibilityAssertion(nil), c.shards[0].compat...)
	}
	if len(d.Tombstones) > 0 {
		// A replica removed and registered again under a dataset homed on
		// another shard left a drop entry on the old shard and a live
		// record on the new one: it exists, so it gets no tombstone.
		live := make(map[string]struct{}, len(d.Export.Replicas))
		for _, r := range d.Export.Replicas {
			live[r.ID] = struct{}{}
		}
		kept := d.Tombstones[:0]
		for _, t := range d.Tombstones {
			if _, ok := live[t.ID]; !ok {
				kept = append(kept, t)
			}
		}
		d.Tombstones = kept
	}
	sortExport(&d.Export)
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
	// Tombstones before replicas: sources that predate the re-homing fix
	// in ChangesSince can ship an ID as both, and the live record wins.
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
	return c.mutate(c.keySet(ds.Name), func() error {
		s := c.shardOf(ds.Name)
		if err := c.types.CheckType(ds.Type); err != nil {
			return fmt.Errorf("%w: dataset %q: %v", ErrType, ds.Name, err)
		}
		old, ok := s.datasets[ds.Name]
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
		return s.logOp(opDataset, ds)
	})
}

// upsertReplica installs r or replaces the replica registered under its
// ID: in place for an epoch re-stamp, by drop-and-add when the source
// removed the replica and registered the ID again under another
// dataset. Like RemoveReplica it locks every shard, because a bare ID
// does not reveal where the old record is homed.
func (c *Catalog) upsertReplica(r schema.Replica) (err error) {
	opAddReplica.Inc()
	defer func() { err = countErr("add_replica", err) }()
	if err := r.Validate(); err != nil {
		return err
	}
	return c.mutate(c.allSet(), func() error {
		home := c.shardOf(r.Dataset)
		if _, ok := home.datasets[r.Dataset]; !ok {
			return fmt.Errorf("%w: replica %q cites unknown dataset %q", ErrNotFound, r.ID, r.Dataset)
		}
		for _, s := range c.shards {
			old, ok := s.replicas[r.ID]
			if !ok {
				continue
			}
			if equalJSON(old, r) {
				return nil
			}
			if old.Dataset != r.Dataset {
				c.dropReplica(r.ID)
				if err := s.logOp(opRemoveReplica, r.ID); err != nil {
					return err
				}
			}
			break
		}
		c.putReplica(r)
		return home.logOp(opReplica, r)
	})
}
