package federation

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/obs"
	"chimera/internal/query"
	"chimera/internal/schema"
	"chimera/internal/vds"
)

// shard is the per-member slice of a federated index: the raw member
// state reconstructed from delta exports, plus the sync cursor needed
// to ask the member for "everything after what I already have". Shards
// are owned by the crawl path (serialized by Index.crawlMu); during the
// fan-out each shard is touched by exactly one worker.
type shard struct {
	// instance and seq form the sync cursor echoed back to the member.
	instance uint64
	seq      uint64

	// gen counts content changes; builtGen is the gen last merged into
	// the shadow. gen != builtGen marks the shard dirty for rebuild.
	gen      uint64
	builtGen uint64

	// Raw member state, applied as upserts from deltas.
	datasets        map[string]schema.Dataset
	transformations map[string]schema.Transformation
	derivations     map[string]schema.Derivation
	invocations     map[string]schema.Invocation
	replicas        map[string]schema.Replica
	types           *dtype.Registry
	compat          []schema.CompatibilityAssertion

	// pending is the one incremental delta applied since the shard was
	// last merged, kept so the merge can fold it into the live shadow.
	// foldable goes false when a Full delta, or a second delta on top of
	// an unmerged one, lands: then only a rebuild reflects the shard.
	pending  catalog.Delta
	foldable bool

	// Cached admission result, valid for (admittedGen, admittedFilter).
	admitted       catalog.Export
	admitErr       error
	admittedGen    uint64
	admittedFilter string
	admittedValid  bool

	// Last crawl outcomes, composed into the index stale map.
	fetchErr   error
	overlapErr error
}

func newShard() *shard {
	return &shard{
		datasets:        make(map[string]schema.Dataset),
		transformations: make(map[string]schema.Transformation),
		derivations:     make(map[string]schema.Derivation),
		invocations:     make(map[string]schema.Invocation),
		replicas:        make(map[string]schema.Replica),
	}
}

// apply folds a delta into the shard. Full deltas reset the shard; the
// records of an incremental delta are upserts (a dataset epoch bump
// ships the whole dataset again), and replica tombstones delete.
func (sh *shard) apply(d catalog.Delta) {
	if d.Full {
		other := newShard()
		sh.datasets = other.datasets
		sh.transformations = other.transformations
		sh.derivations = other.derivations
		sh.invocations = other.invocations
		sh.replicas = other.replicas
		sh.types = nil
		sh.compat = nil
	}
	for _, ds := range d.Export.Datasets {
		sh.datasets[ds.Name] = ds
	}
	for _, tr := range d.Export.Transformations {
		sh.transformations[tr.Ref()] = tr
	}
	for _, dv := range d.Export.Derivations {
		sh.derivations[dv.ID] = dv
	}
	for _, iv := range d.Export.Invocations {
		sh.invocations[iv.ID] = iv
	}
	// Tombstones first: a member that predates the re-homing fix in
	// ChangesSince can ship a replica ID as both, and the live record wins.
	for _, tomb := range d.Tombstones {
		if tomb.Kind == "replica" {
			delete(sh.replicas, tomb.ID)
		}
	}
	for _, r := range d.Export.Replicas {
		sh.replicas[r.ID] = r
	}
	if d.Export.Types != nil {
		// Deltas carry the member's full registry when any type changed.
		sh.types = d.Export.Types
	}
	if len(d.Export.Compat) > 0 {
		sh.compat = d.Export.Compat
	}
	sh.pending, sh.foldable = catalog.Delta{}, false
	if !d.Full && !sh.dirty() {
		sh.pending, sh.foldable = d, true
	}
	sh.gen++
	sh.admittedValid = false
}

// holdsAny reports whether the shard holds an object under any identity
// the delta names, tombstones included.
func (sh *shard) holdsAny(d *catalog.Delta) bool {
	for _, ds := range d.Export.Datasets {
		if _, ok := sh.datasets[ds.Name]; ok {
			return true
		}
	}
	for _, tr := range d.Export.Transformations {
		if _, ok := sh.transformations[tr.Ref()]; ok {
			return true
		}
	}
	for _, dv := range d.Export.Derivations {
		if _, ok := sh.derivations[dv.ID]; ok {
			return true
		}
	}
	for _, iv := range d.Export.Invocations {
		if _, ok := sh.invocations[iv.ID]; ok {
			return true
		}
	}
	for _, r := range d.Export.Replicas {
		if _, ok := sh.replicas[r.ID]; ok {
			return true
		}
	}
	for _, t := range d.Tombstones {
		if _, ok := sh.replicas[t.ID]; ok {
			return true
		}
	}
	return false
}

// dirty reports whether the shard holds content the shadow does not.
func (sh *shard) dirty() bool { return sh.gen != sh.builtGen }

// merged marks the shard's content as reflected in the shadow.
func (sh *shard) merged() {
	sh.builtGen = sh.gen
	sh.pending = catalog.Delta{}
	sh.foldable = false
}

// export materializes the shard as a sorted catalog export, matching
// what the member's full Export() would contain.
func (sh *shard) export() catalog.Export {
	exp := catalog.Export{Types: sh.types}
	for _, ds := range sh.datasets {
		exp.Datasets = append(exp.Datasets, ds)
	}
	for _, tr := range sh.transformations {
		exp.Transformations = append(exp.Transformations, tr)
	}
	for _, dv := range sh.derivations {
		exp.Derivations = append(exp.Derivations, dv)
	}
	for _, iv := range sh.invocations {
		exp.Invocations = append(exp.Invocations, iv)
	}
	for _, r := range sh.replicas {
		exp.Replicas = append(exp.Replicas, r)
	}
	exp.Compat = append([]schema.CompatibilityAssertion(nil), sh.compat...)
	exp.Sort()
	return exp
}

// admittedExport returns the shard's post-admission view, memoized on
// (gen, filter) so unchanged members pay for filtering once, not once
// per rebuild.
func (sh *shard) admittedExport(filterExpr query.Expr, filter string) (catalog.Export, error) {
	if sh.admittedValid && sh.admittedGen == sh.gen && sh.admittedFilter == filter {
		admitHit.Inc()
		return sh.admitted, sh.admitErr
	}
	admitMiss.Inc()
	sh.admitted, sh.admitErr = admit(sh.export(), filterExpr)
	sh.admittedGen = sh.gen
	sh.admittedFilter = filter
	sh.admittedValid = true
	return sh.admitted, sh.admitErr
}

// staleErr composes the member's stale-map entry from last outcomes.
func (sh *shard) staleErr() error {
	switch {
	case sh.fetchErr != nil:
		return sh.fetchErr
	case sh.admitErr != nil && sh.admittedValid:
		return sh.admitErr
	default:
		return sh.overlapErr
	}
}

// crawlDelta is the incremental parallel crawl: fan out bounded workers
// that pull per-member deltas into shards, then merge the dirty shards
// into the shadow — in place when it can (fold), from scratch when it
// must (rebuild). When nothing changed anywhere, the pass costs one
// round-trip per member and touches nothing.
func (ix *Index) crawlDelta(ctx context.Context) error {
	ix.mu.Lock()
	members := make(map[string]*vds.Client, len(ix.members))
	for a, c := range ix.members {
		members[a] = c
	}
	filter := ix.Filter
	timeout := ix.MemberTimeout
	ix.mu.Unlock()
	if timeout <= 0 {
		timeout = DefaultMemberTimeout
	}

	var filterExpr query.Expr
	if filter != "" {
		e, err := query.Parse(filter)
		if err != nil {
			return fmt.Errorf("federation: index %q filter: %w", ix.Name, err)
		}
		filterExpr = e
	}

	// Reconcile the shard set with current membership.
	membersChanged := false
	for a := range ix.shards {
		if _, ok := members[a]; !ok {
			delete(ix.shards, a)
			membersChanged = true
		}
	}
	for a := range members {
		if _, ok := ix.shards[a]; !ok {
			ix.shards[a] = newShard()
		}
	}

	authorities := make([]string, 0, len(members))
	for a := range members {
		authorities = append(authorities, a)
	}
	sort.Strings(authorities)

	// Fan out: each worker owns its member's shard for the duration.
	sem := make(chan struct{}, DefaultWorkers)
	var wg sync.WaitGroup
	for _, a := range authorities {
		wg.Add(1)
		go func(a string, client *vds.Client, sh *shard) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			ix.fetchMember(ctx, a, client, sh, timeout)
		}(a, members[a], ix.shards[a])
	}
	wg.Wait()

	// Merge what the fetches brought. A pass rebuilds when the shadow
	// cannot be taken as the base — first contact, changed membership
	// or filter — and otherwise folds the dirty shards' deltas into it;
	// a fold that cannot prove itself equal to a rebuild degrades to one.
	dirty := false
	for _, sh := range ix.shards {
		dirty = dirty || sh.dirty()
	}
	kind := passUnchanged
	if membersChanged || !ix.built || ix.builtFilter != filter {
		kind = passRebuild
	} else if dirty {
		kind = passRebuild
		if filter == "" && ix.fold(ctx, authorities) {
			kind = passFold
		}
	}
	var shadow *catalog.Catalog
	var origin map[string]string
	if kind == passRebuild {
		shadow, origin = ix.rebuild(ctx, authorities, filterExpr, filter)
	}

	stale := make(map[string]error)
	for a, sh := range ix.shards {
		if err := sh.staleErr(); err != nil {
			stale[a] = err
		}
	}
	snap := ix.snapshotShards(authorities)
	ix.mu.Lock()
	if kind == passRebuild {
		ix.shadow = shadow
		ix.origin = origin
	}
	ix.stale = stale
	ix.shardSnap = snap
	ix.lastPass = kind
	ix.crawls++
	ix.mu.Unlock()
	metricPasses.With(kind).Inc()
	metricCrawls.Inc()
	return nil
}

// Pass kinds: what a delta crawl pass did to the shadow.
const (
	passUnchanged = "unchanged" // no shard changed; shadow untouched
	passFold      = "fold"      // deltas applied to the live shadow in place
	passRebuild   = "rebuild"   // shadow re-imported from every shard
)

// rebuild imports every shard, in authority order, into a fresh shadow:
// the first authority to define an object wins, and what a later one
// could not import counts as its overlap.
func (ix *Index) rebuild(ctx context.Context, authorities []string, filterExpr query.Expr, filter string) (*catalog.Catalog, map[string]string) {
	_, span := obs.StartSpan(ctx, "federation.rebuild")
	defer span.End()
	shadow := catalog.New(nil)
	origin := make(map[string]string)
	for _, a := range authorities {
		sh := ix.shards[a]
		if sh.gen == 0 {
			continue // never fetched successfully
		}
		// A member whose fetch failed keeps serving its last good shard
		// (unlike the full crawl, which forgets unreachable members).
		admitted, err := sh.admittedExport(filterExpr, filter)
		sh.merged()
		if err != nil {
			memberError.Inc()
			continue
		}
		metricAdmitted.Add(uint64(len(admitted.Datasets)))
		sh.overlapErr = nil
		if skipped := shadow.ImportTolerant(admitted); skipped > 0 {
			sh.overlapErr = fmt.Errorf("federation: %d objects of %s overlapped existing index entries", skipped, a)
		}
		claimOrigins(origin, a, &admitted)
	}
	ix.built = true
	ix.builtFilter = filter
	span.SetAttr("datasets", strconv.Itoa(shadow.Stats().Datasets))
	return shadow, origin
}

// originKeys calls fn with the origin-map key of every object in exp
// that the index attributes to a home authority.
func originKeys(exp *catalog.Export, fn func(key string)) {
	for _, ds := range exp.Datasets {
		fn("dataset/" + ds.Name)
	}
	for _, tr := range exp.Transformations {
		fn("transformation/" + tr.Ref())
	}
	for _, dv := range exp.Derivations {
		fn("derivation/" + dv.ID)
	}
}

// claimOrigins attributes exp's objects to authority a, except those an
// earlier authority already owns.
func claimOrigins(origin map[string]string, a string, exp *catalog.Export) {
	originKeys(exp, func(key string) {
		if _, taken := origin[key]; !taken {
			origin[key] = a
		}
	})
}

// fold applies the dirty shards' pending deltas to the live shadow in
// place and reports whether the shadow now equals what a rebuild would
// produce; on false the caller rebuilds, whatever the fold had applied
// by then.
//
// The proof is exclusivity. A rebuild lets members interact only
// through shared identities (first authority wins, later copies count
// as overlap), so when every identity a delta names — dataset,
// transformation, derivation, invocation and replica, tombstones
// included — is held by no other shard, importing the member's new
// state in authority order and upserting its delta onto the old shadow
// are the same thing. Everything else rebuilds: a Full delta, a delta
// touching an identity another member also holds, a registry or
// compatibility change (their merge is order-dependent), a record the
// member's own state does not vouch for, and any record the shadow
// refuses. So does every filtered index, which is why the caller never
// folds one: admission is not monotone under dataset updates and the
// catalog cannot drop a dataset that stops matching.
func (ix *Index) fold(ctx context.Context, authorities []string) bool {
	_, span := obs.StartSpan(ctx, "federation.fold")
	defer span.End()
	abandon := func(why string) bool {
		span.SetAttr("abandoned", why)
		return false
	}
	claims := make(map[string]string) // origin entries this pass introduces
	changes := 0
	for _, a := range authorities {
		sh := ix.shards[a]
		if !sh.dirty() {
			continue
		}
		if !sh.foldable {
			return abandon("full delta from " + a)
		}
		if why := ix.unprovable(sh); why != "" {
			return abandon(why + " from " + a)
		}
		d := &sh.pending.Export
		originKeys(d, func(key string) {
			if ix.origin[key] != a {
				claims[key] = a
			}
		})
		changes += len(d.Datasets) + len(d.Transformations) + len(d.Derivations) +
			len(d.Invocations) + len(d.Replicas) + len(sh.pending.Tombstones)
	}
	span.SetAttr("changes", strconv.Itoa(changes))

	// Attribution first: a search that already sees a folded object must
	// find its authority.
	ix.mu.Lock()
	for key, a := range claims {
		ix.origin[key] = a
	}
	ix.mu.Unlock()

	for _, a := range authorities {
		sh := ix.shards[a]
		if !sh.dirty() {
			continue
		}
		if skipped := ix.shadow.ApplyDelta(sh.pending); skipped > 0 {
			return abandon(fmt.Sprintf("shadow skipped %d records of %s", skipped, a))
		}
		metricAdmitted.Add(uint64(len(sh.pending.Export.Datasets)))
		sh.merged()
	}
	return true
}

// unprovable names the first reason sh's pending delta cannot be folded
// ("" when it can): an identity some other shard also holds, or a
// record whose import depends on more than the member's own state.
func (ix *Index) unprovable(sh *shard) string {
	d := &sh.pending.Export
	if d.Types != nil || len(d.Compat) > 0 {
		return "type or compatibility change"
	}
	for _, other := range ix.shards {
		if other != sh && other.holdsAny(&sh.pending) {
			return "shared identity"
		}
	}
	for _, ds := range d.Datasets {
		// UpdateDataset does not check types, so a member can hold a type
		// its own registry lacks; a rebuild skips such a dataset unless an
		// earlier member happens to define the type.
		if !ds.Type.IsUniversal() && (sh.types == nil || sh.types.CheckType(ds.Type) != nil) {
			return "dataset type unknown to its member"
		}
	}
	for _, dv := range d.Derivations {
		// A versionless reference resolves against whichever versions the
		// shadow holds at import time, other members' included.
		if _, ok := sh.transformations[dv.TR]; !ok {
			return "versionless transformation reference"
		}
	}
	return ""
}

// fetchMember pulls one member's changes into its shard. The fetch span
// wraps the whole round-trip, so its context reaches the member as the
// traceparent header on the /v1/export/since request — the remote
// server's spans parent to this one.
func (ix *Index) fetchMember(ctx context.Context, authority string, client *vds.Client, sh *shard, timeout time.Duration) {
	metricInflight.Inc()
	defer metricInflight.Dec()
	defer metricMemberSeconds.ObserveSince(time.Now())
	ctx, span := obs.StartSpan(ctx, "federation.fetch")
	span.SetAttr("member", authority)
	defer span.End()
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	d, n, err := client.ExportSince(ctx, sh.seq, sh.instance)
	metricBytes.Add(uint64(n))
	if err != nil {
		sh.fetchErr = err
		span.SetError(err)
		memberError.Inc()
		deltaError.Inc()
		return
	}
	sh.fetchErr = nil
	memberOK.Inc()
	switch {
	case d.Full:
		span.SetAttr("delta", "full")
		deltaFull.Inc()
	case d.Empty():
		span.SetAttr("delta", "unchanged")
		deltaUnchanged.Inc()
	default:
		span.SetAttr("delta", "incremental")
		deltaIncremental.Inc()
	}
	if d.Full || !d.Empty() {
		_, aspan := obs.StartSpan(ctx, "federation.apply")
		aspan.SetAttr("member", authority)
		sh.apply(d)
		aspan.End()
	}
	sh.instance, sh.seq = d.Instance, d.Seq
}

// ShardState is one member's sync cursor as of the last delta crawl:
// where the shard stands against the member's journal and whether its
// content has been merged into the served shadow.
type ShardState struct {
	Authority string `json:"authority"`
	Instance  uint64 `json:"instance"`
	Seq       uint64 `json:"seq"`
	Gen       uint64 `json:"gen"`
	BuiltGen  uint64 `json:"built_gen"`
	Error     string `json:"error,omitempty"`
}

// snapshotShards captures the per-member cursors; the caller holds
// crawlMu (shard owner) but NOT ix.mu.
func (ix *Index) snapshotShards(authorities []string) []ShardState {
	out := make([]ShardState, 0, len(authorities))
	for _, a := range authorities {
		sh, ok := ix.shards[a]
		if !ok {
			continue
		}
		st := ShardState{Authority: a, Instance: sh.instance, Seq: sh.seq,
			Gen: sh.gen, BuiltGen: sh.builtGen}
		if err := sh.staleErr(); err != nil {
			st.Error = err.Error()
		}
		out = append(out, st)
	}
	return out
}

// ShardStates reports the last delta crawl's per-member sync cursors.
// It reads a published snapshot, so it never blocks on (or races with)
// a crawl in flight; before the first delta crawl it returns nil.
func (ix *Index) ShardStates() []ShardState {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]ShardState, len(ix.shardSnap))
	copy(out, ix.shardSnap)
	return out
}
