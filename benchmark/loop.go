package main

import (
	"context"
	"fmt"
	"sync"
	"syscall"
	"time"

	"chimera/internal/vds"
)

// client is one closed-loop caller: one goroutine, one connection, one
// script. It waits for each reply before sending the next request.
type client struct {
	vc     *vds.Client
	rx     byteCounter
	script *script
	pos    int // next script index
	// exact: replies must equal the expected ID set; otherwise only the
	// preloaded members of a reply are compared (writers add more).
	exact  bool
	baseDV map[string]struct{}

	// Delta-export cursor of a production client.
	cursorSeq, cursorInstance uint64

	// Measured-window state.
	lat      [numClasses]samples
	failed   int64
	firstErr error
	acked    []*op // acknowledged writes, for the durability check
}

func newBenchClient(base string, sc *script, m *stormModel, exact bool) *client {
	c := &client{script: sc, exact: exact, baseDV: m.baseDV}
	c.vc = newClient(base, &c.rx)
	c.vc.Binary = true
	return c
}

// check compares a reply's identifiers with the expected answer.
// isBase selects the members that count when the reply may legally
// hold more than the base.
func (c *client) check(o *op, n int, id func(i int) string, isBase func(string) bool) error {
	var got answer
	for i := 0; i < n; i++ {
		s := id(i)
		if c.exact || isBase(s) {
			got.add(s)
		}
	}
	if got != o.want {
		return fmt.Errorf("%s %q: reply has %d expected members (hash %x), want %d (hash %x)",
			o.kind, o.arg, got.n, got.sum, o.want.n, o.want.sum)
	}
	return nil
}

func (c *client) isBaseDV(id string) bool { _, ok := c.baseDV[id]; return ok }

// isBaseAny accepts a base dataset name or a base derivation ID, for
// closures that mix both.
func (c *client) isBaseAny(id string) bool { return isBaseDS(id) || c.isBaseDV(id) }

// do issues one op through vds.Client and validates the reply.
func (c *client) do(ctx context.Context, o *op) error {
	switch o.kind {
	case kDiscoverDS:
		out, err := c.vc.SearchDatasetsCtx(ctx, o.arg)
		if err != nil {
			return err
		}
		return c.check(o, len(out), func(i int) string { return out[i].Name }, isBaseDS)
	case kDiscoverDV:
		out, err := c.vc.SearchDerivationsCtx(ctx, o.arg)
		if err != nil {
			return err
		}
		return c.check(o, len(out), func(i int) string { return out[i].ID }, c.isBaseDV)
	case kGetDS:
		ds, err := c.vc.Dataset(o.arg)
		if err != nil {
			return err
		}
		return c.check(o, 1, func(int) string { return ds.Name }, isBaseDS)
	case kGetDV:
		dv, err := c.vc.Derivation(o.arg)
		if err != nil {
			return err
		}
		return c.check(o, 1, func(int) string { return dv.ID }, c.isBaseDV)
	case kAncestors, kDescendants:
		fetch := c.vc.Ancestors
		if o.kind == kDescendants {
			fetch = c.vc.Descendants
		}
		cl, err := fetch(o.arg)
		if err != nil {
			return err
		}
		ids := append(cl.Datasets, cl.Derivations...)
		return c.check(o, len(ids), func(i int) string { return ids[i] }, c.isBaseAny)
	case kLineage:
		rep, err := c.vc.Lineage(o.arg)
		if err != nil {
			return err
		}
		if rep.Dataset != o.arg || rep.Primary {
			return fmt.Errorf("lineage %q: reply is for %q (primary=%v)", o.arg, rep.Dataset, rep.Primary)
		}
		ids := append([]string(nil), rep.PrimarySources...)
		for _, st := range rep.Steps {
			ids = append(ids, st.Derivation.ID)
		}
		return c.check(o, len(ids), func(i int) string { return ids[i] }, c.isBaseAny)
	case kExportSince:
		d, _, err := c.vc.ExportSince(ctx, c.cursorSeq, c.cursorInstance)
		if err != nil {
			return err
		}
		if d.Instance == c.cursorInstance && d.Seq < c.cursorSeq {
			return fmt.Errorf("export_since: cursor went backwards (%d after %d)", d.Seq, c.cursorSeq)
		}
		c.cursorSeq, c.cursorInstance = d.Seq, d.Instance
		return nil
	case kPutDS:
		return c.vc.PutDataset(o.ds)
	case kPutDV:
		resp, err := c.vc.PutDerivation(o.dv)
		if err == nil && resp.Derivation.ID != o.dv.ID {
			err = fmt.Errorf("put_dv: server stored %s, generator computed %s", resp.Derivation.ID, o.dv.ID)
		}
		return err
	case kPutIV:
		return c.vc.PutInvocation(o.iv)
	case kPutRep:
		return c.vc.PutReplica(o.rep)
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// run executes the script closed-loop: unmeasured until warmEnd, then
// measured until end. keepAcked retains every acknowledged write.
func (c *client) run(warmEnd, end time.Time, keepAcked bool) {
	ctx := context.Background()
	for {
		o := c.script.at(c.pos)
		c.pos++
		t0 := time.Now()
		if !t0.Before(end) {
			c.pos--
			return
		}
		err := c.do(ctx, o)
		d := time.Since(t0)
		if keepAcked && err == nil && o.kind.class() == classWrite {
			c.acked = append(c.acked, o)
		}
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
			continue
		}
		if t0.Before(warmEnd) {
			continue
		}
		cl := o.kind.class()
		c.lat[cl] = append(c.lat[cl], d)
	}
}

// loopResult is one measured window over all clients.
type loopResult struct {
	lat       [numClasses]samples
	ok        int64   // successful, correct ops started inside the window
	failed    int64   // failed or wrong ops, warm-up included
	rxBytes   int64   // response-body bytes over warm-up and window
	sent      int64   // ops sent over warm-up and window
	before    scrape  // /metrics at the start of the measured part
	clientCPU float64 // benchmark-process CPU seconds inside the window
	serverCPU float64 // vdcd CPU seconds inside the window
	firstErr  error
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runClosedLoop drives every client for warm (unmeasured) plus window
// (measured) and merges their samples. CPU shares are taken over the
// measured part only.
func runClosedLoop(srv *server, clients []*client, warm, window time.Duration, keepAcked bool) loopResult {
	for _, c := range clients {
		for cl := range c.lat {
			c.lat[cl] = make(samples, 0, 1<<16)
		}
	}
	start := time.Now()
	warmEnd := start.Add(warm)
	end := warmEnd.Add(window)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(warmEnd, end, keepAcked)
		}(c)
	}
	time.Sleep(time.Until(warmEnd))
	var res loopResult
	res.before, _ = srv.scrape()
	cpuSelf0 := selfCPUSeconds()
	cpuSrv0, _ := procCPUSeconds(srv.pid())
	wg.Wait()
	res.clientCPU = selfCPUSeconds() - cpuSelf0
	cpuSrv1, _ := procCPUSeconds(srv.pid())
	res.serverCPU = cpuSrv1 - cpuSrv0
	for _, c := range clients {
		for cl := range c.lat {
			res.lat[cl] = append(res.lat[cl], c.lat[cl]...)
			res.ok += int64(len(c.lat[cl]))
		}
		res.failed += c.failed
		res.rxBytes += c.rx.n
		res.sent += int64(c.pos)
		if res.firstErr == nil {
			res.firstErr = c.firstErr
		}
	}
	return res
}
