package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/vds"
)

// checkDurability is ingest_durable's epilogue: SIGKILL the server,
// restart it three times on the same directory (each start replays the
// same WAL, so the three times are one measurement repeated), and then
// require every acknowledged dataset, derivation, invocation and
// replica to be readable and the object counts to equal base plus
// acknowledged. The kill is a process crash: what the kernel had
// cached survives it, so this does not prove power-loss durability.
func checkDurability(run *serverRun) error {
	res := run.res
	var restarts []float64
	for i := 0; i < 3; i++ {
		dir := run.srv.dir
		run.srv.kill()
		srv, d, err := startServer(run.cfg.bin, dir)
		if err != nil {
			return fmt.Errorf("restart after SIGKILL: %w", err)
		}
		run.srv = srv
		restarts = append(restarts, d.Seconds())
	}
	res.set("restart_s", medianFloat(restarts), len(restarts))

	want := catalog.Stats{
		Datasets:        run.model.chains * (1 + run.model.depth),
		Transformations: len(run.model.base.Transformations),
		Derivations:     run.model.chains * run.model.depth,
	}
	var wg sync.WaitGroup
	missing := make([]int64, len(run.clients))
	firstMissing := make([]string, len(run.clients))
	for i, c := range run.clients {
		for _, o := range c.acked {
			switch o.kind {
			case kPutDS:
				want.Datasets++
			case kPutDV:
				want.Derivations++
				want.Datasets++ // its output dataset
			case kPutIV:
				want.Invocations++
			case kPutRep:
				want.Replicas++
			}
		}
		wg.Add(1)
		go func(i int, acked []*op) {
			defer wg.Done()
			vc := newClient(run.srv.base, nil)
			for _, o := range acked {
				if err := readBack(vc, o); err != nil {
					missing[i]++
					if firstMissing[i] == "" {
						firstMissing[i] = err.Error()
					}
				}
			}
		}(i, c.acked)
	}
	wg.Wait()
	for i, c := range run.clients {
		res.Attempted += int64(len(c.acked))
		res.Failed += missing[i]
		if missing[i] > 0 {
			res.fail("%d of client %d's %d acknowledged writes are gone after SIGKILL and restart; first: %s",
				missing[i], i, len(c.acked), firstMissing[i])
		}
	}
	info, err := newClient(run.srv.base, nil).Info()
	if err != nil {
		return err
	}
	res.Attempted++
	if info.Stats != want {
		res.Failed++
		res.fail("after restart the catalog holds %+v, acknowledged writes add up to %+v", info.Stats, want)
	}
	return nil
}

// readBack fetches the object an acknowledged write created.
func readBack(vc *vds.Client, o *op) error {
	switch o.kind {
	case kPutDS:
		ds, err := vc.Dataset(o.ds.Name)
		if err == nil && ds.Name != o.ds.Name {
			err = fmt.Errorf("dataset %s: got %s", o.ds.Name, ds.Name)
		}
		return err
	case kPutDV:
		dv, err := vc.Derivation(o.dv.ID)
		if err == nil && dv.ID != o.dv.ID {
			err = fmt.Errorf("derivation %s: got %s", o.dv.ID, dv.ID)
		}
		return err
	case kPutIV:
		iv, err := vc.Invocation(o.iv.ID)
		if err == nil && iv.Derivation != o.iv.Derivation {
			err = fmt.Errorf("invocation %s: of derivation %s, want %s", o.iv.ID, iv.Derivation, o.iv.Derivation)
		}
		return err
	case kPutRep:
		reps, err := vc.Replicas(o.rep.Dataset)
		if err != nil {
			return err
		}
		for _, r := range reps {
			if r.ID == o.rep.ID {
				return nil
			}
		}
		return fmt.Errorf("replica %s of %s: not listed", o.rep.ID, o.rep.Dataset)
	}
	return fmt.Errorf("readBack: %s is not a write", o.kind)
}

// openLoopProbe sends collab_mix's ops on a fixed schedule for a few
// seconds, regardless of replies, and times each from the moment it was
// due. Its numbers are reported as loadgen.* only, never as end-to-end
// metrics: on the same box and code, back-to-back runs at 600 ops/s
// gave p99 anywhere between 6 and 25 ms, because the generator's own
// timer wake-ups on otherwise idle cores dominate the tail.
func (run *serverRun) openLoopProbe() error {
	const rate = 600.0 // ops/s offered, over all connections
	n := len(run.clients)
	interval := time.Duration(float64(time.Second) * float64(n) / rate)
	start := time.Now().Add(10 * time.Millisecond)
	end := start.Add(run.cfg.openLoopFor)

	type outcome struct {
		lat, late samples
		doneBy    int // completed before the schedule's end
		failed    int64
	}
	out := make([]outcome, n)
	var wg sync.WaitGroup
	for k, c := range run.clients {
		wg.Add(1)
		go func(k int, c *client) {
			defer wg.Done()
			ctx := context.Background()
			o := &out[k]
			for j := 0; ; j++ {
				due := start.Add(time.Duration(k)*interval/time.Duration(n) + time.Duration(j)*interval)
				if !due.Before(end) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				op := c.script.at(c.pos)
				c.pos++
				err := c.do(ctx, op)
				done := time.Now()
				if err != nil {
					o.failed++
					continue
				}
				o.late = append(o.late, sent.Sub(due))
				o.lat = append(o.lat, done.Sub(due))
				if done.Before(end) {
					o.doneBy++
				}
			}
		}(k, c)
	}
	wg.Wait()
	var lat, late samples
	var doneBy int
	for _, o := range out {
		lat = append(lat, o.lat...)
		late = append(late, o.late...)
		doneBy += o.doneBy
		run.res.Attempted += int64(len(o.lat)) + o.failed
		run.res.Failed += o.failed
	}
	offered := rate * run.cfg.openLoopFor.Seconds()
	run.res.set("loadgen.open_p50_ms", lat.p50ms(), len(lat))
	run.res.set("loadgen.open_p99_ms", lat.p99ms(), len(lat))
	run.res.set("loadgen.open_late_p99_ms", late.p99ms(), len(late))
	run.res.set("loadgen.open_achieved_over_offered", float64(doneBy)/offered, int(offered))
	return nil
}
