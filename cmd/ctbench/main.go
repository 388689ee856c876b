// Command ctbench regenerates every table and figure of the paper's
// evaluation (plus the repository's ablations) on the simulator.
//
// Usage:
//
//	ctbench -exp all          # every experiment, paper-scale sizes
//	ctbench -exp fig7a        # one experiment
//	ctbench -exp fig2,fig9    # a comma-separated list
//	ctbench -quick            # shrunken sizes for a fast smoke run
//	ctbench -list             # list experiment IDs
//	ctbench -parallel 0       # 0 (the default) = one worker per CPU
//	                          # (runtime.GOMAXPROCS); 1 = serial; N>1 =
//	                          # N workers, capped at one per CPU. Tables
//	                          # are byte-identical at every setting.
//	ctbench -cache rw         # content-addressed result cache:
//	                          # off (default) = always simulate,
//	                          # rw = serve hits + store fresh results,
//	                          # ro = serve hits, never write,
//	                          # clear = empty the cache and exit. A rw
//	                          # cache also prunes entries from older
//	                          # simulator versions at startup. The cache
//	                          # holds results only, never traces. A
//	                          # failed experiment is never cached, so a
//	                          # re-run with the same -cache rw -cachedir
//	                          # simulates exactly the failed and missing
//	                          # experiments
//	ctbench -cachedir DIR     # cache location (default
//	                          # ~/.cache/ctbia/results)
//	ctbench -tracedir DIR     # trace-replay engine: every geometry-
//	                          # independent point (insecure, ct, ct-avx,
//	                          # preload) records its op stream into DIR
//	                          # once and replays it from then on, in
//	                          # this run and later ones, on every
//	                          # machine config of a sweep; a fresh DIR
//	                          # is primed by the first run. BIA-family
//	                          # points, whose streams read cache state,
//	                          # run direct, as does every point without
//	                          # -tracedir (the default)
//	ctbench -faults SPEC      # arm deterministic fault injection
//	                          # (grammar in package faultinject),
//	                          # e.g. 'seed=1; worker.panic@1' — chaos
//	                          # testing only
//	ctbench -json out.json    # the run record: per experiment its
//	                          # result-cache key, wall time, machine
//	                          # counts, cached/failed status, errors,
//	                          # metrics and table rows, plus the run's
//	                          # provenance
//	ctbench -timeline t.json  # arm the observability layer and write a
//	                          # Chrome trace-event timeline of every
//	                          # harness phase (open in Perfetto or
//	                          # chrome://tracing)
//	ctbench -listen :8080     # serve live introspection while the sweep
//	                          # runs: /metrics (Prometheus text, with
//	                          # p50/p95/p99 summaries per histogram),
//	                          # /metrics.json, /progress, /healthz
//	                          # (200 serving, 503 draining),
//	                          # /debug/vars (expvar) and /debug/pprof
//	ctbench -serve :9090      # coordinate a distributed sweep: shard
//	                          # the selected experiments into leased
//	                          # work units served over HTTP/JSON (plus
//	                          # the introspection endpoints above and
//	                          # a GET /fleet report of worker liveness,
//	                          # lease ages, points/sec and metric lag)
//	                          # and merge worker results — tables,
//	                          # metric deltas and timeline spans, so
//	                          # /metrics and -json report fleet-wide
//	                          # totals; falls back to
//	                          # in-process execution if no worker joins
//	                          # (or all of them die), so the sweep
//	                          # always finishes. Composes with -cache
//	                          # and -json exactly like a local run
//	ctbench -worker URL       # join the coordinator at URL, lease work
//	                          # units, execute them and upload tables
//	                          # until the sweep is done. -quick is
//	                          # dictated by the coordinator; -cache/
//	                          # -json/-exp do not apply
//	ctbench -fleet-lease-ms N # coordinator: per-unit execution
//	                          # deadline before a lease re-queues
//	                          # (default 60000)
//	ctbench -fleet-joinwait-ms N
//	                          # coordinator: how long to wait for a
//	                          # first worker before draining the sweep
//	                          # in-process (default 3000)
//	ctbench -progress         # print a progress line with ETA to stderr
//	                          # every few seconds (long sweeps)
//	ctbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Performance is measured by the repository benchmark, not by ctbench:
// `bash bench/run.sh` (see bench/README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/faultinject"
	"ctbia/internal/fleet"
	"ctbia/internal/harness"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
)

// jsonExperiment is one experiment's record in the -json report.
type jsonExperiment struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// Key is the experiment's result-cache key (harness.CacheKey),
	// present under every -cache mode: the entry a cached result came
	// from, or the one a clean -cache rw result was saved to.
	Key      string     `json:"key"`
	WallMS   float64    `json:"wall_ms"`
	Machines uint64     `json:"machines"`
	Cached   bool       `json:"cached,omitempty"`
	Failed   bool       `json:"failed,omitempty"`
	Errors   []string   `json:"errors,omitempty"`
	Headers  []string   `json:"headers,omitempty"`
	Rows     [][]string `json:"rows,omitempty"`
	Notes    []string   `json:"notes,omitempty"`
	// Metrics is the experiment's observability delta (BIA lines
	// skipped, per-level cache stats, probe outcomes, ...) — attribution
	// is exact in serial runs, approximate under parallelism.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// jsonReport is the -json file layout. "machines" counts simulated
// machine uses (fresh builds + pool resets — pooling recycles machines,
// so builds alone undercount scale); the split is reported alongside.
// Per-experiment machine counts are exact in serial runs; in parallel
// runs the attribution windows overlap, but the run-level total stays
// exact — trajectory tooling should trend the totals and the
// per-experiment wall times.
type jsonReport struct {
	Created        string  `json:"created"`
	Quick          bool    `json:"quick"`
	Parallel       int     `json:"parallel"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	WallMS         float64 `json:"wall_ms"`
	Machines       uint64  `json:"machines"`
	MachinesBuilt  uint64  `json:"machines_built"`
	MachinesReused uint64  `json:"machines_reused"`
	CacheMode      string  `json:"cache_mode"`
	CacheHits      int     `json:"cache_hits"`
	CacheDir       string  `json:"cache_dir,omitempty"`
	TraceRecords   uint64  `json:"trace_records"`
	TraceReplays   uint64  `json:"trace_replays"`
	// TraceSharedReplays counts replays served from a recording made
	// under a different machine config (the sweep-level sharing win).
	TraceSharedReplays uint64 `json:"trace_shared_replays"`
	// TraceFanoutReplays counts fan-out passes (one per served group of
	// two or more configs);
	// TraceDecodePasses counts full decode passes over stored streams —
	// under fan-out, one per distinct trace key touched, not one per
	// replay served.
	TraceFanoutReplays uint64 `json:"trace_fanout_replays"`
	TraceDecodePasses  uint64 `json:"trace_decode_passes"`
	// Provenance stamps the producing toolchain and configuration so a
	// result file is self-describing for trajectory tooling.
	Provenance harness.Provenance `json:"provenance"`
	// Metrics is the run-level observability snapshot (superset of the
	// per-experiment deltas; exact at every worker count).
	Metrics map[string]uint64 `json:"metrics,omitempty"`
	// Fleet is the distributed-sweep accounting (leases, heartbeats,
	// dedup hits, fallback units) — present only under -serve.
	Fleet map[string]uint64 `json:"fleet,omitempty"`
	// FleetWorkers is the per-worker fleet report (units, points,
	// clock offset, metric lag) — present only under -serve once a
	// worker has joined.
	FleetWorkers []fleet.WorkerReport `json:"fleet_workers,omitempty"`
	Experiments  []jsonExperiment     `json:"experiments"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ctbench: ", err)
	os.Exit(1)
}

// usageErr reports a bad flag value or impossible flag combination and
// exits 2, so scripts can tell misuse (2) from run failures (1).
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ctbench: "+format+"\n", args...)
	os.Exit(2)
}

func main() {
	exp := flag.String("exp", "all", "experiment id, comma-separated list, or 'all'")
	quick := flag.Bool("quick", false, "use shrunken problem sizes")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallel", 0, "worker count for experiments and sweep points (0: one per CPU, 1: serial; at most one per CPU)")
	cacheMode := flag.String("cache", "off", "result cache mode: off, rw (read+write), ro (read-only) or clear (empty the cache and exit)")
	cacheDir := flag.String("cachedir", "", "result cache directory (default ~/.cache/ctbia/results)")
	traceDir := flag.String("tracedir", "", "trace-replay directory: every geometry-independent point (insecure, ct, ct-avx, preload) records into it once and replays from it; BIA-family points run direct (default none: every point runs direct)")
	faults := flag.String("faults", "", "arm deterministic fault injection, e.g. 'seed=1; worker.panic@1' (chaos testing)")
	jsonOut := flag.String("json", "", "write the run record: per experiment its cache key, status, errors, metrics, wall time and table rows")
	timelineOut := flag.String("timeline", "", "write a Chrome trace-event timeline of harness phases to this file (open in Perfetto or chrome://tracing)")
	listen := flag.String("listen", "", "serve live introspection on this address during the run (/metrics, /metrics.json, /progress, /debug/vars, /debug/pprof)")
	serve := flag.String("serve", "", "coordinate a distributed sweep on this address: shard experiments into leased work units for -worker processes, merging their tables (falls back to in-process execution if no worker joins)")
	workerURL := flag.String("worker", "", "join the fleet coordinator at this URL, lease work units and upload results until the sweep is done")
	fleetLeaseMS := flag.Int("fleet-lease-ms", 60000, "coordinator: per-unit execution deadline in milliseconds before a lease re-queues")
	fleetJoinWaitMS := flag.Int("fleet-joinwait-ms", 3000, "coordinator: milliseconds to wait for a first worker before draining the sweep in-process")
	progress := flag.Bool("progress", false, "print a progress line with ETA to stderr during the run")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	// The flag line feeds the provenance stamp in the -json report
	// (flag.Visit walks set flags in lexical order, so the line is
	// deterministic for a given invocation).
	var setFlags []string
	flag.Visit(func(f *flag.Flag) {
		setFlags = append(setFlags, "-"+f.Name+"="+f.Value.String())
	})
	flagLine := strings.Join(setFlags, " ")

	if *list {
		for _, e := range harness.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.Experiments()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := harness.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	// Bad flag values are usage errors (exit 2, no stack trace) — the
	// sweep must only start once every knob is known-good.
	if *parallel < 0 {
		usageErr("-parallel %d: worker count cannot be negative", *parallel)
	}
	if *serve != "" && *workerURL != "" {
		usageErr("-serve and -worker are mutually exclusive: a process coordinates or executes, not both")
	}
	if *fleetLeaseMS < 1 {
		usageErr("-fleet-lease-ms %d: need a positive lease deadline", *fleetLeaseMS)
	}
	if *fleetJoinWaitMS < 1 {
		usageErr("-fleet-joinwait-ms %d: need a positive join deadline", *fleetJoinWaitMS)
	}
	if *workerURL != "" {
		// A worker executes what it is told and uploads; selection,
		// caching and reporting all live on the coordinator.
		if *exp != "all" {
			usageErr("-worker ignores -exp: the coordinator decides what runs")
		}
		if *cacheMode != "off" {
			usageErr("-worker does not take -cache: the coordinator owns the result cache")
		}
		if *jsonOut != "" {
			usageErr("-worker does not produce reports: run -json on the coordinator")
		}
	}
	if err := cpu.DefaultConfig().Validate(); err != nil {
		// Can only trip if the default machine config is edited into an
		// impossible geometry; catch it before any experiment panics.
		usageErr("machine config: %v", err)
	}

	// -cache clear is an action, not a mode: empty the store and exit.
	if *cacheMode == "clear" {
		store, err := resultcache.Open(*cacheDir, resultcache.ReadWrite, "")
		if err != nil {
			fatal(err)
		}
		n, err := store.Clear()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("cleared %d cached entries from %s\n", n, store.Dir())
		return
	}

	mode, err := resultcache.ParseMode(*cacheMode)
	if err != nil {
		usageErr("%v", err)
	}
	if *faults != "" {
		inj, err := faultinject.Parse(*faults)
		if err != nil {
			usageErr("%v", err)
		}
		faultinject.Arm(inj)
	}
	if mode == resultcache.ReadWrite {
		dir := *cacheDir
		if dir == "" {
			dir = resultcache.DefaultDir()
		}
		if err := resultcache.EnsureWritable(dir); err != nil {
			usageErr("-cachedir: %v", err)
		}
	}
	if *traceDir != "" {
		if err := resultcache.EnsureWritable(*traceDir); err != nil {
			usageErr("-tracedir: %v", err)
		}
	}

	// Opening with the simulator version salt prunes entries stored by
	// older simulator versions (they could never be served again).
	store, err := resultcache.Open(*cacheDir, mode, harness.SimVersionSalt)
	if err != nil {
		fatal(err)
	}
	if store.Pruned() > 0 {
		fmt.Fprintf(os.Stderr, "ctbench: pruned %d stale cache entries (simulator version changed)\n", store.Pruned())
	}
	if err := harness.SetTraceDir(*traceDir); err != nil {
		fatal(err)
	}

	// Observability. The instrumented layers cost one atomic load per
	// probe while disarmed, so the registry arms only when something
	// will actually read it: a -json report, a timeline, a live
	// endpoint or a progress line.
	if *jsonOut != "" || *timelineOut != "" || *listen != "" || *progress {
		obs.Arm()
	}
	obs.RegisterSource(store.EmitMetrics)
	var timelineFile *os.File
	if *timelineOut != "" {
		f, err := os.Create(*timelineOut)
		if err != nil {
			usageErr("-timeline: %v", err)
		}
		timelineFile = f
		obs.EnableTimeline()
	}
	var listenSrv *obs.Server
	if *listen != "" {
		srv, err := obs.Serve(*listen)
		if err != nil {
			usageErr("-listen: %v", err)
		}
		listenSrv = srv
		defer listenSrv.Close()
		fmt.Fprintf(os.Stderr, "ctbench: live introspection on http://%s/metrics (also /metrics.json, /progress, /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = obs.StartProgress(os.Stderr, 2*time.Second)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	// -parallel 0 means "use every CPU": the tables are byte-identical
	// at any worker count, so there is no reason to default to serial.
	// More workers than CPUs never run (RunAll clamps to GOMAXPROCS), so
	// the count is capped here, where the summary line and -json read it.
	workers := *parallel
	if cpus := runtime.GOMAXPROCS(0); workers <= 0 || workers > cpus {
		workers = cpus
	}

	opts := harness.Options{Quick: *quick, Parallel: workers, Cache: store}

	// Worker mode: lease units from the coordinator, execute, upload,
	// repeat until the sweep is done. The coordinator owns selection,
	// scale and cache; this process only simulates.
	if *workerURL != "" {
		w := fleet.NewWorker(fleet.WorkerConfig{
			URL:  *workerURL,
			Opts: harness.Options{Parallel: workers},
			Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
		})
		fmt.Fprintf(os.Stderr, "ctbench: worker %s joining %s\n", w.ID(), *workerURL)
		n, err := w.Run(context.Background())
		if err != nil {
			fatal(fmt.Errorf("worker %s: %w (%d units completed)", w.ID(), err, n))
		}
		fmt.Printf("ctbench: worker %s done: %d units completed\n", w.ID(), n)
		return
	}

	start := time.Now()
	builtBefore, reusedBefore := cpu.MachinesBuilt(), cpu.MachinesReset()
	var results []harness.Result
	var fleetStats *fleet.Stats
	var fleetCo *fleet.Coordinator
	if *serve != "" {
		// Coordinator mode: same sweep, same sinks, same output — the
		// execution just happens wherever workers are (or in-process,
		// if none show up).
		co, err := fleet.NewCoordinator(fleet.Config{
			Addr:     *serve,
			LeaseTTL: time.Duration(*fleetLeaseMS) * time.Millisecond,
			JoinWait: time.Duration(*fleetJoinWaitMS) * time.Millisecond,
		}, selected, opts)
		if err != nil {
			usageErr("-serve: %v", err)
		}
		fleetStats = co.Stats()
		fleetCo = co
		obs.RegisterSource(fleetStats.EmitMetrics)
		// The per-worker fleet.worker.<id>.* namespace rides the same
		// pull: registered here, not in the package, so only an actual
		// coordinator run grows its snapshot by worker count.
		obs.RegisterSource(co.EmitWorkerMetrics)
		fmt.Fprintf(os.Stderr, "ctbench: coordinating fleet on http://%s/fleet/ (join with: ctbench -worker %s; live report on /fleet)\n",
			co.Addr(), co.Addr())
		results, err = co.Run(context.Background())
		if err != nil {
			fatal(err)
		}
	} else {
		results = harness.RunAll(selected, opts)
	}
	wall := time.Since(start)
	stopProgress()
	built := cpu.MachinesBuilt() - builtBefore
	reused := cpu.MachinesReset() - reusedBefore

	cacheHits := 0
	for _, r := range results {
		fmt.Print(r.Table.Render())
		mark := ""
		if r.Cached {
			mark = ", cached"
			cacheHits++
		}
		if r.Failed() {
			mark += ", FAILED"
		}
		fmt.Printf("(%s in %v%s)\n\n", r.Experiment.ID, r.Wall.Round(time.Millisecond), mark)
	}
	traceRecs, traceReps, _ := harness.TraceStats()
	sharedReps, _ := harness.TraceShareStats()
	fanouts, decodePasses, _ := harness.TraceFanoutStats()
	fmt.Printf("total: %d experiments, %d machines (%d built, %d reused), %d cache hits, %d traces recorded, %d replayed (%d shared across configs, %d fan-out passes, %d decode passes), %v wall (parallel=%d, cache=%s)\n",
		len(results), built+reused, built, reused, cacheHits, traceRecs, traceReps, sharedReps, fanouts, decodePasses,
		wall.Round(time.Millisecond), workers, mode)
	var fleetReport *fleet.FleetReport
	if fleetStats != nil {
		s := fleetStats.Map()
		fmt.Printf("fleet: %d workers joined (%d lost), %d leases granted (%d expired, %d requeued), %d results accepted (%d dup, %d malformed), %d run locally, %d cached\n",
			s["worker_joins"], s["worker_losses"], s["leases_granted"], s["leases_expired"], s["leases_requeued"],
			s["results_accepted"], s["dedup_hits"], s["results_malformed"], s["local_units"], s["cached_units"])
		fr := fleetCo.FleetReport()
		fleetReport = &fr
		if len(fr.Workers) > 0 {
			fmt.Printf("fleet obs: %d metric snapshots merged (%d entries), %d spans imported, %d remote points\n",
				s["metric_snapshots"], s["metric_entries"], s["spans_imported"], s["remote_points"])
			for _, wr := range fr.Workers {
				state := "lost"
				if wr.Live {
					state = fmt.Sprintf("live, seen %dms ago", wr.LastSeenMS)
				}
				line := fmt.Sprintf("fleet worker %s: %s, %d units done, %d points",
					wr.ID, state, wr.UnitsDone, wr.Points)
				if wr.PointsPerSec > 0 {
					line += fmt.Sprintf(" (%.0f pts/s)", wr.PointsPerSec)
				}
				if wr.Leases > 0 {
					line += fmt.Sprintf(", %d leases (oldest %dms)", wr.Leases, wr.OldestLeaseMS)
				}
				if wr.MetricLagMS >= 0 {
					line += fmt.Sprintf(", metric lag %dms", wr.MetricLagMS)
				}
				if wr.ClockOffsetMS != 0 {
					line += fmt.Sprintf(", clock offset %+.1fms", wr.ClockOffsetMS)
				}
				if wr.Busy != "" {
					line += ", busy on " + wr.Busy
				}
				fmt.Println(line)
			}
		}
	}

	// Fault accounting: every run reports what it survived, and failures
	// flip the exit code — but only after every surviving table, profile
	// and report has been written.
	failures := harness.Failures(results)
	if retries, quarantined := harness.TraceFaultStats(); retries > 0 || quarantined > 0 {
		fmt.Fprintf(os.Stderr, "ctbench: %d transient faults retried, %d points quarantined onto the direct path\n", retries, quarantined)
		if qp := harness.QuarantinedPoints(); len(qp) > 0 {
			fmt.Fprintf(os.Stderr, "ctbench: quarantined: %s\n", strings.Join(qp, ", "))
		}
	}
	if q := store.Quarantined(); q > 0 {
		fmt.Fprintf(os.Stderr, "ctbench: %d corrupt result-cache entries quarantined\n", q)
	}

	// The timeline lands before any failure exit so a partially failed
	// sweep still leaves its trace behind for inspection.
	if timelineFile != nil {
		err := obs.WriteTimeline(timelineFile)
		if cerr := timelineFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(fmt.Errorf("-timeline: %w", err))
		}
		fmt.Fprintf(os.Stderr, "ctbench: timeline: %d events written to %s (open in Perfetto or chrome://tracing)\n",
			obs.TimelineEventCount(), *timelineOut)
	}
	if len(failures) > 0 {
		fmt.Fprintf(os.Stderr, "\nctbench: %d point(s) FAILED (all other points completed):\n", len(failures))
		for _, pe := range failures {
			fmt.Fprintf(os.Stderr, "  %v\n", pe)
		}
		if mode == resultcache.ReadWrite {
			fmt.Fprintln(os.Stderr, "ctbench: re-run with the same -cache rw -cachedir to retry only the failed experiments")
		}
	}

	if *jsonOut != "" {
		report := jsonReport{
			Created:            time.Now().UTC().Format(time.RFC3339),
			Quick:              *quick,
			Parallel:           workers,
			GOMAXPROCS:         runtime.GOMAXPROCS(0),
			WallMS:             float64(wall.Microseconds()) / 1000,
			Machines:           built + reused,
			MachinesBuilt:      built,
			MachinesReused:     reused,
			CacheMode:          mode.String(),
			CacheHits:          cacheHits,
			CacheDir:           store.Dir(),
			TraceRecords:       traceRecs,
			TraceReplays:       traceReps,
			TraceSharedReplays: sharedReps,
			TraceFanoutReplays: fanouts,
			TraceDecodePasses:  decodePasses,
			Provenance:         harness.NewProvenance(flagLine),
			Metrics:            obs.Snapshot(),
		}
		if fleetStats != nil {
			report.Fleet = fleetStats.Map()
		}
		if fleetReport != nil {
			report.FleetWorkers = fleetReport.Workers
		}
		for _, r := range results {
			je := jsonExperiment{
				ID:       r.Experiment.ID,
				Title:    r.Experiment.Title,
				Key:      harness.CacheKey(r.Experiment, opts),
				WallMS:   float64(r.Wall.Microseconds()) / 1000,
				Machines: r.Machines,
				Cached:   r.Cached,
				Failed:   r.Failed(),
				Headers:  r.Table.Headers,
				Rows:     r.Table.Rows,
				Notes:    r.Table.Notes,
				Metrics:  r.Metrics,
			}
			if r.Err != nil {
				je.Errors = append(je.Errors, r.Err.Error())
			} else if r.Table != nil {
				for _, pe := range r.Table.Failures {
					je.Errors = append(je.Errors, pe.Error())
				}
			}
			report.Experiments = append(report.Experiments, je)
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if len(failures) > 0 {
		// os.Exit skips defers; flush the CPU profile explicitly.
		pprof.StopCPUProfile()
		os.Exit(1)
	}
}
