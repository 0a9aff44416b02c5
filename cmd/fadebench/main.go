// Command fadebench regenerates the paper's tables and figures. Each
// experiment prints rows mirroring the series the paper plots; the output
// of a full run is the data recorded in EXPERIMENTS.md.
//
// Beyond the tables, every simulation cell carries its full metrics
// snapshot (see docs/METRICS.md): -json embeds the snapshots in each
// report, -metrics writes one Prometheus text exposition covering every
// cell, and -timeline writes a cycle-sampled JSONL telemetry stream.
//
// With -cache-dir every simulated cell is stored in a content-addressed
// result cache keyed by its canonical run spec, making sweeps resumable:
// an interrupted run rerun with the same flags replays completed cells
// from disk and simulates only the remainder, producing byte-identical
// tables.
//
// With -coordinator ADDR the sweep runs distributed, which is how several
// machines split one sweep: fadebench listens on ADDR as a fabric
// coordinator (see docs/SERVING.md), fadeworker processes lease cells over
// HTTP, and cells no worker finishes — worker crashes, partitions,
// exhausted retries, or no workers at all — are executed locally, so the
// sweep always completes and the assembled tables are byte-identical to a
// local run.
//
// Usage:
//
//	fadebench -exp all
//	fadebench -exp fig9 -instrs 500000
//	fadebench -exp all -parallel 8 -json > tables.jsonl
//	fadebench -exp fig4b -metrics out.prom -timeline out.jsonl
//	fadebench -exp all -cache-dir /var/tmp/fade-cache
//	fadebench -exp all -cache-dir shared/ -coordinator :9090
//	fadeworker -coordinator http://coord-host:9090 -cache-dir worker-cache/
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"fade"
	"fade/internal/experiments"
	"fade/internal/fabric"
	"fade/internal/spans"
)

// report is the JSON shape emitted per experiment under -json: the table
// plus its wall-clock and per-cell metrics. Streaming one object per line
// (rather than one big array) lets long runs be consumed incrementally.
type report struct {
	ID      string             `json:"id"`
	Title   string             `json:"title"`
	Header  []string           `json:"header"`
	Rows    [][]string         `json:"rows"`
	Notes   []string           `json:"notes,omitempty"`
	Elapsed string             `json:"elapsed"`
	Cells   []fade.CellMetrics `json:"cells,omitempty"`
	Error   string             `json:"error,omitempty"`
}

func main() {
	os.Exit(run())
}

// run holds the whole program so deferred profile/file closers execute
// before the process exits (os.Exit in main would skip them).
func run() int {
	var (
		exp       = flag.String("exp", "all", "experiment id or 'all' (ids: "+strings.Join(fade.ExperimentIDs(), " ")+")")
		instrs    = flag.Uint64("instrs", 300_000, "application instructions per simulation")
		seed      = flag.Uint64("seed", 1, "random seed")
		parallel  = flag.Int("parallel", 0, "simulation cells to run concurrently (0 = GOMAXPROCS, 1 = sequential)")
		appCores  = flag.Int("app-cores", 0, "CMP: run every cell with N application cores (0 = experiment default)")
		monCores  = flag.Int("mon-cores", 0, "CMP: dedicated monitor cores (default: one per application core)")
		check     = flag.Bool("check", false, "arm the per-cycle invariant checker in every cell; a violation fails the experiment with the invariant named")
		ff        = flag.Bool("fast-forward", true, "skip ahead through quiescent cycle spans in every cell (results are byte-identical; -check forces cycle-exact execution)")
		asJSON    = flag.Bool("json", false, "emit one JSON object per experiment on stdout (progress goes to stderr)")
		metricsAt = flag.String("metrics", "", "write every cell's metrics as one Prometheus text exposition to this file")
		tlAt      = flag.String("timeline", "", "write cycle-sampled JSONL telemetry for every cell to this file")
		tlEvery   = flag.Uint64("timeline-every", 0, "cycles between timeline samples (default 1000 when -timeline is set)")
		traceAt   = flag.String("trace", "", "write a wall-clock sweep trace (cli.run, bench.experiment, par.cell spans) as Chrome trace-event JSON to this file")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		cacheDir  = flag.String("cache-dir", "", "content-addressed result cache directory; reruns replay completed cells instead of simulating")
		cacheMem  = flag.Int("cache-mem", 0, "in-memory result cache entries (0 = default; effective with -cache-dir)")

		coordAddr    = flag.String("coordinator", "", "run the sweep distributed: listen on ADDR as a fabric coordinator for fadeworker processes, executing unclaimed cells locally")
		leaseTTL     = flag.Duration("lease-ttl", 30*time.Second, "fabric lease time-to-live; heartbeats renew it (with -coordinator)")
		leaseRetries = flag.Int("lease-retries", 3, "re-queue cap per cell before the coordinator executes it locally (with -coordinator)")
		workerGrace  = flag.Duration("worker-grace", 10*time.Second, "idle period with no worker activity before the coordinator claims the whole backlog locally (with -coordinator)")
	)
	flag.Parse()

	var cache *fade.ResultCache
	if *cacheDir != "" {
		c, err := fade.OpenResultCache(*cacheDir, *cacheMem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -cache-dir: %v\n", err)
			return 1
		}
		cache = c
	}
	if *coordAddr != "" && cache == nil {
		// Results must land somewhere the assembly pass can read; an
		// in-memory cache serves when no -cache-dir is shared.
		c, err := fade.OpenResultCache("", *cacheMem)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -coordinator: %v\n", err)
			return 1
		}
		cache = c
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "fadebench: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
				fmt.Fprintf(os.Stderr, "fadebench: -memprofile: %v\n", err)
			}
		}()
	}

	if *tlAt != "" && *tlEvery == 0 {
		*tlEvery = 1000
	}
	// SIGINT/SIGTERM cancel every in-flight simulation cell at its next
	// scheduler checkpoint; completed experiments' metrics are still flushed
	// below and the process exits non-zero.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	// The sweep trace is wall-domain: one cli.run span, one bench.experiment
	// span per experiment, one par.cell span per simulation cell (emitted by
	// the worker pool; the experiments layer strips the trace before each
	// cell's simulator so cycle spans never flood the shared ring).
	var tr *spans.Trace
	if *traceAt != "" {
		tr = spans.New("fadebench-"+*exp, 1<<16)
		ctx = spans.NewContext(ctx, tr)
	}

	o := fade.ExperimentOptions{
		Instrs: *instrs, Seed: *seed, Parallel: *parallel, TimelineEvery: *tlEvery,
		AppCores: *appCores, MonCores: *monCores,
		Ctx: ctx, CheckInvariants: *check, FastForward: *ff,
		Cache: cache,
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = fade.ExperimentIDs()
	}

	var tlFile *os.File
	if *tlAt != "" {
		f, err := os.Create(*tlAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -timeline: %v\n", err)
			return 1
		}
		tlFile = f
		defer tlFile.Close()
	}

	// Human-readable progress goes to stderr so that stdout stays clean
	// JSONL under -json (and clean tables otherwise).
	enc := json.NewEncoder(os.Stdout)
	var labeled []fade.LabeledSnapshot
	start := time.Now()
	failed := false
	canceled := false
	if *coordAddr != "" {
		// The distributed phase fills the cache; the assembly loop below
		// then runs unchanged as a pure cache read. A fabric error is
		// reported but not fatal here: assembly retries whatever is still
		// missing locally and flags any cell that truly cannot run.
		if err := distribute(ctx, *coordAddr, ids, o, *leaseTTL, *leaseRetries, *workerGrace); err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: fabric: %v\n", err)
			if ctx.Err() != nil {
				logCacheStats(cache)
				return 2
			}
			failed = true
		}
	}
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "fadebench: running %s...\n", id)
		expStart := time.Now()
		t, err := fade.RunExperiment(id, o)
		elapsed := time.Since(expStart).Round(time.Millisecond)
		tr.Wall(spans.NameBenchExperiment, expStart, time.Now(), spans.Str("exp", id), spans.None)
		if err != nil {
			failed = true
			fmt.Fprintf(os.Stderr, "fadebench: %s: %v\n", id, err)
			if *asJSON {
				enc.Encode(report{ID: id, Elapsed: elapsed.String(), Error: err.Error()})
			}
			if errors.Is(err, fade.ErrCanceled) || ctx.Err() != nil {
				// Stop launching experiments, but fall through: the metrics
				// accumulated from completed experiments still get flushed.
				canceled = true
				break
			}
			continue
		}
		fmt.Fprintf(os.Stderr, "fadebench: %s done in %s (%d cells)\n", id, elapsed, len(t.Cells))
		if *asJSON {
			enc.Encode(report{
				ID: t.ID, Title: t.Title, Header: t.Header, Rows: t.Rows,
				Notes: t.Notes, Elapsed: elapsed.String(), Cells: t.Cells,
			})
		} else {
			fmt.Println(t.String())
			fmt.Printf("[%s: %s]\n\n", id, elapsed)
		}
		for _, c := range t.Cells {
			if *metricsAt != "" {
				labeled = append(labeled, fade.LabeledSnapshot{
					Labels: []fade.MetricLabel{{Key: "exp", Value: t.ID}, {Key: "cell", Value: c.Cell}},
					Snap:   c.Metrics,
				})
			}
			if tlFile != nil && len(c.Timeline) > 0 {
				if err := fade.WriteTimeline(tlFile, t.ID+"/"+c.Cell, c.Timeline); err != nil {
					fmt.Fprintf(os.Stderr, "fadebench: -timeline: %v\n", err)
					return 1
				}
			}
		}
	}
	if *metricsAt != "" {
		f, err := os.Create(*metricsAt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -metrics: %v\n", err)
			return 1
		}
		err = fade.WriteMetrics(f, labeled)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -metrics: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "fadebench: total wall time %s\n", time.Since(start).Round(time.Millisecond))
	if tr != nil {
		tr.Wall(spans.NameCLIRun, start, time.Now(), spans.Str("exp", *exp), spans.None)
		f, err := os.Create(*traceAt)
		if err == nil {
			err = spans.WriteChromeJSON(f, tr)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "fadebench: -trace: %v\n", err)
			failed = true
		}
	}
	logCacheStats(cache)
	if canceled {
		return 2
	}
	if failed {
		return 1
	}
	return 0
}

// distribute is -coordinator mode: the selected experiments' cells are
// registered with a fabric coordinator listening on addr, fadeworker
// processes lease and execute them over HTTP, and Drive executes
// whatever the workers cannot finish locally. On return the cache holds
// the results table assembly reads.
func distribute(ctx context.Context, addr string, ids []string, o fade.ExperimentOptions, ttl time.Duration, retries int, grace time.Duration) error {
	coord, err := fabric.NewCoordinator(fabric.Options{
		Cache:      o.Cache,
		LeaseTTL:   ttl,
		MaxRetries: retries,
	})
	if err != nil {
		return err
	}
	for _, id := range ids {
		cells, err := experiments.CellsFor(id, o)
		if err != nil {
			return err
		}
		coord.Add(cells)
	}
	coord.Seal()
	st := coord.Stats()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("coordinator listen: %w", err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "fadebench: coordinator on %s: %d cells, %d to simulate (point workers at it with: fadeworker -coordinator http://%s)\n",
		ln.Addr(), st.Total, st.Total-int(st.Precached), ln.Addr())

	err = coord.Drive(ctx, grace, o.Parallel)
	st = coord.Stats()
	fmt.Fprintf(os.Stderr, "fadebench: fabric: %d/%d cells done (%d workers, %d leases granted, %d expired, %d retries, %d run locally)\n",
		st.Done, st.Total, st.WorkersRegistered, st.LeasesGranted, st.LeasesExpired, st.Retries, st.LocalCells)
	if err == nil && st.Workers > 0 {
		// Drive returns the moment the last cell lands, but idle workers
		// poll at up to their PollMax (2s by default); keep answering
		// "sweep done" long enough for each to observe it and exit
		// cleanly instead of finding the port closed mid-poll.
		select {
		case <-time.After(3 * time.Second):
		case <-ctx.Done():
		}
	}
	return err
}

func logCacheStats(cache *fade.ResultCache) {
	if cache == nil {
		return
	}
	st := cache.Stats()
	fmt.Fprintf(os.Stderr, "fadebench: cache: %d hits, %d misses, %d disk reads, %d disk writes, %d corrupt\n",
		st.Hits, st.Misses, st.DiskReads, st.DiskWrites, st.DiskCorrupt)
}
