package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"chimera/internal/federation"
	"chimera/internal/obs"
	"chimera/internal/schema"
)

const federationSyncWhy = "a federation.Index delta-crawling one member vdcd that keeps changing: export, ChangesSince, binary encode/decode, snapshot load and federation apply/rebuild do the work; query and the WAL do little"

// fedMutations is how many datasets the member gains between two
// crawl passes; fedUnchanged is the number of passes with nothing new.
const (
	fedMutations = 50
	fedUnchanged = 20
)

// runFederationSync measures one member only: the crawl worker pool
// cannot be measured honestly when index, member and load generator
// share two cores.
func runFederationSync(cfg *config) (*workloadResult, error) {
	res := newWorkloadResult(wlFederationSync, federationSyncWhy, cfg)
	dir, err := newRunDir(cfg.work, wlFederationSync)
	if err != nil {
		return nil, err
	}
	run := &serverRun{cfg: cfg, res: res, dir: dir, baseDir: filepath.Join(dir, "base"),
		model: newStormModel(cfg.analystChains, cfg.seed)}
	defer func() {
		run.srv.kill()
		os.RemoveAll(dir)
	}()
	if err := run.setUp(); err != nil {
		return nil, err
	}
	// Every set-up start loaded the same binary snapshot.
	res.set("restart_s", medianFloat(run.starts), len(run.starts))

	const authority = "bench.vdc"
	var memberRx byteCounter
	member := newClient(run.srv.base, &memberRx)
	member.Binary = true
	mutator := newClient(run.srv.base, nil)
	ix := federation.NewIndex("bench-federation", "collaboration")
	ix.AddMember(authority, member)

	crawl := func(ctx context.Context, ix *federation.Index) (time.Duration, error) {
		t0 := time.Now()
		if err := ix.CrawlContext(ctx); err != nil {
			return 0, err
		}
		d := time.Since(t0)
		res.Attempted++
		if err := ix.MemberError(authority); err != nil {
			res.Failed++
			res.fail("crawl: member error: %v", err)
		}
		return d, nil
	}
	notes := 0
	var tagNotes [stormTagGroups]int // notes registered per tag
	mutate := func() {
		for i := 0; i < fedMutations; i++ {
			tag := notes % stormTagGroups
			ds := schema.Dataset{
				Name:  fmt.Sprintf("fed.note.%07d", notes),
				Attrs: schema.Attributes{"tag": stormTag(tag), "project": "federation"},
			}
			notes++
			res.Attempted++
			if err := mutator.PutDataset(ds); err != nil {
				res.Failed++
				res.fail("mutation: %v", err)
				continue
			}
			tagNotes[tag]++
		}
	}

	ctx := context.Background()
	full, err := crawl(ctx, ix)
	if err != nil {
		return nil, err
	}

	// The measured window: the member changes, the index catches up.
	// One op is one round: the member gains fedMutations datasets and
	// the index catches up; its latency is the crawl pass alone.
	var passes samples
	start := time.Now()
	for end := start.Add(cfg.window); time.Now().Before(end); {
		mutate()
		d, err := crawl(ctx, ix)
		if err != nil {
			return nil, err
		}
		passes = append(passes, d)
	}
	ops := len(passes) * (fedMutations + 1)
	res.set("ops_per_s", float64(ops)/time.Since(start).Seconds(), ops)
	res.set("crawl_delta_p50_ms", passes.p50ms(), len(passes))
	res.set("op_p50_ms", passes.p50ms(), len(passes))
	// Too few passes fit a window for a p99: the tail is the p90.
	res.set("op_tail_ms", passes.quantile(0.90), len(passes))

	var unchanged samples
	for i := 0; i < fedUnchanged; i++ {
		d, err := crawl(ctx, ix)
		if err != nil {
			return nil, err
		}
		unchanged = append(unchanged, d)
	}
	res.set("federation.unchanged_pass_ms", unchanged.p50ms(), len(unchanged))

	if cfg.trace {
		if err := tracedCrawls(cfg, res, ix, mutate, &memberRx); err != nil {
			return nil, err
		}
	}

	// A fresh index must arrive at the same state in one full crawl. Two
	// of them, so that crawl_full_s is a median of three.
	fulls := []float64{full.Seconds()}
	var fresh *federation.Index
	for i := 0; i < 2; i++ {
		freshClient := newClient(run.srv.base, nil)
		freshClient.Binary = true
		fresh = federation.NewIndex("bench-federation-fresh", "collaboration")
		fresh.AddMember(authority, freshClient)
		d, err := crawl(ctx, fresh)
		if err != nil {
			return nil, err
		}
		fulls = append(fulls, d.Seconds())
	}
	res.set("crawl_full_s", medianFloat(fulls), len(fulls))

	info, err := mutator.Info()
	if err != nil {
		return nil, err
	}
	if ix.Stats() != fresh.Stats() || ix.Stats() != info.Stats {
		res.Failed++
		res.fail("incremental index %+v, fresh index %+v, member %+v: must all be equal", ix.Stats(), fresh.Stats(), info.Stats)
	}
	for tag, extra := range tagNotes {
		q := "attr.tag = " + stormTag(tag)
		want := run.model.byTag[tag].n + extra
		for _, x := range []*federation.Index{ix, fresh} {
			res.Attempted++
			entries, err := x.SearchDatasets(q)
			if err != nil || len(entries) != want {
				res.Failed++
				res.fail("index %s: %q returned %d entries (err %v), want %d", x.Name, q, len(entries), err, want)
			}
		}
	}

	rss, err := peakRSSMB(run.srv.pid())
	if err != nil {
		return nil, err
	}
	bytes, err := dirBytes(run.srv.dir)
	if err != nil {
		return nil, err
	}
	res.footprint(rss, run.baseObj, statsObjects(info.Stats), run.baseBytes, bytes)
	after, err := run.srv.scrape()
	if err != nil {
		return nil, err
	}
	res.Scrapes["member"] = after.raw
	res.finish()
	return res, nil
}

// tracedCrawls repeats a few mutate-and-crawl rounds under the
// benchmark's tracer; the index's own crawl, fetch and apply spans give
// the federation layer's costs.
func tracedCrawls(cfg *config, res *workloadResult, ix *federation.Index, mutate func(), rx *byteCounter) error {
	const rounds = 20
	tracer := obs.NewTracer()
	ctx := obs.WithTracer(context.Background(), tracer)
	rx0 := rx.n
	for i := 0; i < rounds; i++ {
		mutate()
		res.Attempted++
		if err := ix.CrawlContext(ctx); err != nil {
			return err
		}
	}
	res.set("federation.bytes_per_pass", float64(rx.n-rx0)/rounds, rounds)
	var fetch, apply samples
	for _, sp := range tracer.Spans() {
		switch sp.Name {
		case "federation.fetch":
			fetch = append(fetch, sp.End-sp.Start)
		case "federation.apply":
			apply = append(apply, sp.End-sp.Start)
		}
		cfg.tracer.Record(sp)
	}
	res.set("federation.fetch_ms", fetch.p50ms(), len(fetch))
	res.set("federation.apply_us_per_change", apply.p50us()/fedMutations, len(apply))

	var search samples
	for i := 0; i < 200; i++ {
		q := fmt.Sprintf("name = fed.note.%07d", i)
		t0 := time.Now()
		entries, err := ix.SearchDatasets(q)
		search = append(search, time.Since(t0))
		res.Attempted++
		if err != nil || len(entries) != 1 {
			res.Failed++
			res.fail("index search %q: %d entries, err %v", q, len(entries), err)
		}
	}
	res.set("federation.search_us", search.p50us(), len(search))
	return nil
}
