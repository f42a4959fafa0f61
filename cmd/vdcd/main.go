// Command vdcd serves a durable virtual data catalog over HTTP: the
// network face of one node in the virtual data grid. Other catalogs
// hyperlink to its objects with vdp:// references, federated indexes
// crawl it, and the chimera CLI (or any HTTP client) composes and
// queries it remotely.
//
// Operational endpoints: GET /metrics exposes process metrics (runtime
// gauges included) in Prometheus text format; GET /healthz reports
// liveness plus catalog stats; GET /debug/vdc reports the journal
// cursor and its delta floor, index cardinalities and the slowest
// recent requests with their trace IDs; /debug/loglevel reads and sets per-subsystem log
// levels at runtime. With -trace, GET /debug/trace dumps the in-memory
// span buffer in Chrome trace-event format (load it in Perfetto); with
// -pprof, the net/http/pprof profiles are mounted at /debug/pprof/.
// SIGINT/SIGTERM trigger a graceful drain: in-flight requests finish,
// the catalog is snapshotted, and the WAL is flushed closed.
//
// Durability is a group-commit WAL of checksummed binary/v1 frames:
// mutations batch their log writes and (with -sync) share one fsync
// per batch, written by the first waiting writer (docs/PERF.md, "Write
// path"). The catalog keeps one lock, one log and one journal
// (docs/PERF.md, "One lock, one log"). Snapshots are binary/v1 with a
// CRC-32C trailer, compact and mmap-loaded (docs/PERF.md, "Binary
// catalog format"), so a directory holds two self-describing files,
// wal.bin and snapshot.bin. vdcd refuses to start on a directory an
// earlier build wrote — a JSON-lines log, a sharded catalog's shard
// logs, a JSON snapshot, a catalog-meta.json or an untrailed
// snapshot.bin — and names the offline command that converts it,
// `chimera migrate -dir DIR`.
//
// With -federate, vdcd also hosts a federated index over the listed
// member catalogs and crawls them incrementally every -crawl-every;
// the per-member sync cursors appear under /debug/vdc, and each pass
// is one connected trace when -trace is on. The crawler always offers
// the compact binary export transport (members that do not speak it
// negotiate down to JSON), and -max-export-bytes caps how large a
// member response it will buffer.
//
// Usage:
//
//	vdcd -addr :8844 -dir /var/lib/vdc -name physics.example.edu \
//	    [-readonly] [-sync] [-log-level info,wal=debug] [-log-json] \
//	    [-trace] [-pprof] [-federate a=http://h1:8844,b=http://h2:8844]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"chimera/internal/catalog"
	"chimera/internal/dtype"
	"chimera/internal/federation"
	"chimera/internal/grid"
	"chimera/internal/obs"
	"chimera/internal/planner"
	"chimera/internal/vds"
)

// Connection hygiene for the listener. A client gets readHeaderTimeout
// to send its request headers (slow-header connections would otherwise
// pin a goroutine each forever) and a keep-alive connection is closed
// after idleTimeout without a request. There is deliberately no write
// timeout: a full export of a large catalog is one long response.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", ":8844", "listen address")
	dir := flag.String("dir", "vdc-data", "catalog directory")
	name := flag.String("name", "vdc", "catalog authority name")
	readonly := flag.Bool("readonly", false, "reject mutations")
	syncWAL := flag.Bool("sync", false, "fsync the write-ahead log before acknowledging mutations (one fsync per commit batch)")
	flag.Int("shards", 1, "Deprecated: ignored; the catalog has one lock")
	snapshotFormat := flag.String("snapshot-format", "", "Deprecated: snapshots are always binary/v1; accepts only \"\" or binary/v1")
	snapshotEvery := flag.Duration("snapshot-every", 10*time.Minute, "WAL compaction interval (0 disables)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget for in-flight requests")
	logLevel := flag.String("log-level", "info", "log level spec: a default level optionally followed by subsys=level overrides, e.g. \"info,wal=debug,http=warn\" (also settable at runtime via /debug/loglevel)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	traceOn := flag.Bool("trace", false, "record request/crawl spans in memory and serve them at /debug/trace in Chrome trace-event format")
	traceLimit := flag.Int("trace-limit", 65536, "span-buffer capacity with -trace; older spans beyond it are dropped (counted)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof profiles at /debug/pprof/")
	federate := flag.String("federate", "", "comma-separated authority=url member list; vdcd hosts a federated index over them")
	crawlEvery := flag.Duration("crawl-every", 30*time.Second, "federation crawl interval with -federate")
	maxExportBytes := flag.Int64("max-export-bytes", vds.DefaultMaxResponseBytes, "largest member export response the federation crawler accepts, in bytes; <0 removes the cap")
	flag.Parse()

	if err := obs.ParseLevelSpec(*logLevel); err != nil {
		fmt.Fprintf(os.Stderr, "vdcd: -log-level: %v\n", err)
		os.Exit(2)
	}
	obs.SetLogOutput(os.Stderr, *logJSON)
	logger := obs.Logger("vdcd")
	obs.EnableRuntimeMetrics(obs.Default)

	cat, err := catalog.Open(*dir, dtype.StandardRegistry(), catalog.Options{
		Sync:           *syncWAL,
		SnapshotFormat: *snapshotFormat,
	})
	if err != nil {
		logger.Error("catalog open failed", "dir", *dir, "err", err)
		os.Exit(1)
	}

	stop := make(chan struct{})
	snapDone := make(chan struct{})
	if *snapshotEvery > 0 {
		ticker := time.NewTicker(*snapshotEvery)
		go func() {
			defer close(snapDone)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if err := cat.Snapshot(); err != nil {
						logger.Error("snapshot failed", "err", err)
					} else {
						logger.Debug("snapshot complete")
					}
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(snapDone)
	}

	srv := vds.NewServer(*name, cat)
	srv.ReadOnly = *readonly

	// Grid-simulation and replication counters (events, queue resizes,
	// replicas created, evictions) are process-wide; expose them under
	// one /debug/vdc section. Federation (below) chains its own section.
	srv.OnDebug = func(info map[string]any) {
		stats := grid.DebugStats()
		for k, v := range planner.DebugStats() {
			stats[k] = v
		}
		info["grid"] = stats
	}

	var tracer *obs.Tracer
	if *traceOn {
		tracer = obs.NewTracer()
		tracer.Limit = *traceLimit
		srv.Tracer = tracer
	}

	// The server is the root handler; debug extras mount on an outer mux
	// so they stay out of the API surface (and its middleware) entirely.
	var handler http.Handler = srv
	if tracer != nil || *pprofOn {
		outer := http.NewServeMux()
		outer.Handle("/", srv)
		if tracer != nil {
			outer.HandleFunc("GET /debug/trace", func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/json")
				if err := tracer.WriteChromeTrace(w); err != nil {
					logger.Error("trace export failed", "err", err)
				}
			})
		}
		if *pprofOn {
			outer.HandleFunc("/debug/pprof/", pprof.Index)
			outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
			outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		handler = outer
	}

	// Optional federation: host an index over the listed members and
	// crawl it on a timer. Each pass runs under the tracer (when on), so
	// one crawl is one connected trace: crawl root, per-member fetches
	// (propagated to members via traceparent), apply and fold/rebuild spans.
	crawlDone := make(chan struct{})
	if *federate != "" {
		ix := federation.NewIndex(*name+"-federation", "collaboration")
		for _, m := range strings.Split(*federate, ",") {
			m = strings.TrimSpace(m)
			if m == "" {
				continue
			}
			authority, url, ok := strings.Cut(m, "=")
			if !ok {
				logger.Error("bad -federate member, want authority=url", "member", m)
				os.Exit(2)
			}
			cl := vds.NewClient(strings.TrimSpace(url))
			cl.MaxResponseBytes = *maxExportBytes
			ix.AddMember(strings.TrimSpace(authority), cl)
		}
		base := srv.OnDebug
		srv.OnDebug = func(info map[string]any) {
			base(info)
			info["federation"] = map[string]any{
				"members":   ix.Members(),
				"crawls":    ix.Crawls(),
				"last_pass": ix.LastPass(),
				"shards":    ix.ShardStates(),
				"stats":     ix.Stats(),
			}
		}
		flog := obs.Logger("federation")
		go func() {
			defer close(crawlDone)
			ticker := time.NewTicker(*crawlEvery)
			defer ticker.Stop()
			for {
				crawlCtx := context.Background()
				if tracer != nil {
					crawlCtx = obs.WithTracer(crawlCtx, tracer)
				}
				start := time.Now()
				if err := ix.CrawlContext(crawlCtx); err != nil {
					flog.Error("crawl failed", "err", err)
				} else {
					flog.Debug("crawl complete", "crawls", ix.Crawls(),
						"pass", ix.LastPass(), "seconds", time.Since(start).Seconds())
				}
				select {
				case <-ticker.C:
				case <-stop:
					return
				}
			}
		}()
	} else {
		close(crawlDone)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: handler,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	st := cat.Stats()
	logger.Info("serving catalog", "name", *name, "addr", *addr,
		"datasets", st.Datasets, "derivations", st.Derivations,
		"trace", *traceOn, "pprof", *pprofOn, "federate", *federate != "")

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		// Listener failed before any signal; still close the catalog.
		cat.Close()
		logger.Error("listener failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	logger.Info("shutting down")

	shutdownCtx, cancelShutdown := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancelShutdown()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain incomplete", "err", err)
	}
	close(stop)
	<-snapDone
	<-crawlDone

	// Compact and flush durable state, then log the final counters so
	// the last scrape isn't the only record of the run. Snapshot
	// flushes the group committer before truncating the WAL, and Close
	// flushes whatever was queued after it, so nothing acknowledged is
	// lost between the last request and process exit.
	if err := cat.Snapshot(); err != nil {
		logger.Error("final snapshot failed", "err", err)
	}
	if err := cat.Close(); err != nil && !errors.Is(err, os.ErrClosed) {
		logger.Error("wal close failed", "err", err)
	}
	var metrics strings.Builder
	if err := obs.Default.WritePrometheus(&metrics); err == nil {
		logger.Info("final metrics", "prometheus", metrics.String())
	}
	st = cat.Stats()
	logger.Info("shutdown complete", "datasets", st.Datasets,
		"derivations", st.Derivations, "invocations", st.Invocations)
}
