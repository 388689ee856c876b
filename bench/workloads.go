package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/fleet"
	"ctbia/internal/harness"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
	"ctbia/internal/workloads"
)

// config is everything a child process needs to build a workload. The
// program under test receives only what is derived from it here.
type config struct {
	Workload string
	Seed     int64
	Workers  int    // simulation threads
	Quick    bool   // Quick experiment sizes and a shrunken sweep grid (smoke runs)
	Dir      string // scratch directory for trace stores and sinks
}

// unit is one unit of work of a pass: an experiment (suite-*,
// fleet-sweep) or one fan-out group call (sweep-replay).
type unit struct {
	ID     string
	Wall   time.Duration
	Sum    [sha256.Size]byte // digest of the unit's output
	Failed bool
}

// passResult is one pass over a workload's whole input set.
type passResult struct {
	Wall  time.Duration
	Units []unit
	// Counts are counters the workload reads from its own sinks (fleet
	// statistics, the result store, the manifest, streamed trace files).
	Counts map[string]uint64
	// Merged is what the fleet coordinator folded into the metrics
	// registry from worker uploads; in-process workers already harvested
	// the same work into that registry, so it is subtracted once.
	Merged map[string]uint64
	// Warmup marks a set-up pass at Quick scale, whose outputs are not
	// comparable with the timed passes'.
	Warmup bool
	// Insts is the pass's simulated instruction count, for workloads
	// whose output reports it (0 otherwise).
	Insts uint64
}

// workload is one benchmark workload.
type workload interface {
	// setup brings a fresh process to steady state: a Quick-scale pass
	// for the suites and the fleet, which builds every machine pool and
	// touches its memory, and the recording pass for sweep-replay.
	setup() (passResult, error)
	// pass runs one timed pass over the whole input set.
	pass() (passResult, error)
}

// catalogue lists the workloads; BENCHMARK.json and README.md give the
// reason each exists.
var catalogue = []struct {
	name  string
	build func(config) (workload, error)
}{
	{"suite-direct", buildSuite(harness.TraceOff)},
	{"suite-traced", buildSuite(harness.TraceOn)},
	{"sweep-replay", buildSweep},
	{"fleet-sweep", buildFleet},
}

// useEngine is the bench's only contact with the trace engine's
// process-global toggles (mode, fan-out, persistence directory, reset):
// it configures the engine for one workload and returns the reset that
// starts every pass, so each pass sees a fresh engine.
func useEngine(mode harness.TraceMode, dir string) (resetPass func(), err error) {
	harness.SetTraceMode(mode)
	harness.SetTraceFanout(true)
	if err := harness.SetTraceDir(dir); err != nil {
		return nil, err
	}
	harness.ResetTraces()
	return harness.ResetTraces, nil
}

// experimentUnits turns experiment results into units, digesting each
// rendered table (the output users read; it carries no timings).
func experimentUnits(rs []harness.Result) []unit {
	us := make([]unit, len(rs))
	for i, r := range rs {
		u := unit{ID: r.Experiment.ID, Wall: r.Wall, Failed: r.Failed() || r.Table == nil}
		if r.Table != nil {
			u.Sum = sha256.Sum256([]byte(r.Table.Render()))
		}
		us[i] = u
	}
	return us
}

// suite runs every experiment through harness.RunAll, as `ctbench -exp
// all -parallel W` does.
type suite struct {
	c     config
	exps  []harness.Experiment
	reset func()
}

func buildSuite(mode harness.TraceMode) func(config) (workload, error) {
	return func(c config) (workload, error) {
		reset, err := useEngine(mode, "")
		if err != nil {
			return nil, err
		}
		return &suite{c: c, exps: harness.Experiments(), reset: reset}, nil
	}
}

func (s *suite) setup() (passResult, error) { return s.run(true) }

func (s *suite) pass() (passResult, error) { return s.run(s.c.Quick) }

func (s *suite) run(quick bool) (passResult, error) {
	s.reset()
	start := time.Now()
	rs := harness.RunAll(s.exps, harness.Options{Quick: quick, Parallel: s.c.Workers})
	return passResult{Wall: time.Since(start), Units: experimentUnits(rs), Warmup: quick != s.c.Quick}, nil
}

// fleetSweep runs the experiments through a coordinator on loopback and
// Workers in-process workers of one simulation thread each, with the
// observability layer armed and a fresh result store and manifest per
// pass, as `ctbench -serve ... -cache rw -json` plus `ctbench -worker`
// processes would.
type fleetSweep struct {
	c     config
	exps  []harness.Experiment
	reset func()
}

func buildFleet(c config) (workload, error) {
	reset, err := useEngine(harness.TraceOff, "")
	if err != nil {
		return nil, err
	}
	obs.Arm()
	return &fleetSweep{c: c, exps: harness.Experiments(), reset: reset}, nil
}

func (f *fleetSweep) setup() (passResult, error) { return f.run(true) }

func (f *fleetSweep) pass() (passResult, error) { return f.run(f.c.Quick) }

func (f *fleetSweep) run(quick bool) (passResult, error) {
	f.reset()
	dir, err := os.MkdirTemp(f.c.Dir, "fleet-")
	if err != nil {
		return passResult{}, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	store, err := resultcache.Open(filepath.Join(dir, "results"), resultcache.ReadWrite, harness.SimVersionSalt)
	if err != nil {
		return passResult{}, err
	}
	store.EnableWriteBehind()
	man := harness.NewManifest(filepath.Join(store.Dir(), harness.ManifestName), quick)
	co, err := fleet.NewCoordinator(fleet.Config{Addr: "127.0.0.1:0"}, f.exps,
		harness.Options{Quick: quick, Parallel: f.c.Workers, Cache: store, Manifest: man})
	if err != nil {
		store.Close()
		return passResult{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < f.c.Workers; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{
			URL:  co.Addr(),
			ID:   fmt.Sprintf("bench-w%d", i+1),
			Opts: harness.Options{Parallel: 1},
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = w.Run(ctx) // a worker's failure shows as missing or local units
		}()
	}
	rs, err := co.Run(ctx)
	cancel()
	wg.Wait()
	man.Close()
	store.Close()
	wall := time.Since(start)
	if err != nil {
		return passResult{}, err
	}
	p := passResult{Wall: wall, Units: experimentUnits(rs), Counts: map[string]uint64{}, Merged: map[string]uint64{},
		Warmup: quick != f.c.Quick}
	co.Stats().EmitMetrics(func(name string, v uint64) { p.Counts[name] = v })
	store.EmitMetrics(func(name string, v uint64) { p.Counts[name] = v })
	man.EmitMetrics(func(name string, v uint64) { p.Counts[name] = v })
	for _, r := range rs {
		for k, v := range r.Metrics {
			p.Merged[k] += v
		}
	}
	return p, nil
}

// Sweep grid. Sizes are the largest at which every (program, strategy,
// geometry) key of the ladder records — larger histogram, heappop and
// permutation inputs make the BIA strategy's stream too irregular to
// compress, and such dead keys would run direct on every pass. Kernels
// run the paper's 48 blocks.
var (
	sweepSizes = map[string]int{"dijkstra": 128, "histogram": 5000, "permutation": 500, "binarysearch": 20000, "heappop": 3000}
	quickSizes = map[string]int{"dijkstra": 32, "histogram": 500, "permutation": 200, "binarysearch": 1000, "heappop": 500}
)

const (
	sweepBlocks = 48
	quickBlocks = 4
	// streamBytes mirrors the trace engine's inline cap: stored traces
	// larger than this replay through the streaming reader.
	streamBytes = 10 << 20
)

// sweepStrategies are the sweep's strategies; bia groups run on the
// ladder with the BIA in the L1d.
var sweepStrategies = []struct {
	name string
	s    ct.Strategy
	bia  bool
}{
	{"insecure", ct.Direct{}, false},
	{"ct", ct.Linear{}, false},
	{"ct-avx", ct.LinearVec{}, false},
	{"bia@1", ct.BIA{}, true},
}

// sweepLadder returns the machine configs of the sweep: the geosweep
// ladder, a 16 KB L1d (whose histogram BIA trace exceeds the inline cap,
// so the streaming reader runs), a 256 KB L1d and an 8 MB LLC. Quick
// runs use the Table 1 machine and the 16 KB L1d.
func sweepLadder(quick bool) []cpu.Config {
	small := cpu.DefaultConfig()
	small.Levels[0].Size = 16 << 10
	if quick {
		return []cpu.Config{cpu.DefaultConfig(), small}
	}
	var out []cpu.Config
	for _, g := range harness.GeoSweepGeometries() {
		out = append(out, g.Config)
	}
	big := cpu.DefaultConfig()
	big.Levels[0].Size = 256 << 10
	llc := cpu.DefaultConfig()
	llc.Levels[2].Size = 8 << 20
	return append(out, small, big, llc)
}

// group is one (program, strategy) fan-out call over the whole ladder.
type group struct {
	id  string
	run func() []cpu.Report
}

// sweepGroups builds the grid: every workload and kernel under every
// sweep strategy, with secret inputs drawn from the seed.
func sweepGroups(seed int64, quick bool) []group {
	ladder := sweepLadder(quick)
	pure := make([]cpu.Config, len(ladder))
	bia := make([]cpu.Config, len(ladder))
	for i, c := range ladder {
		pure[i], bia[i] = c, c
		pure[i].BIALevel = 0
		bia[i].BIALevel = 1
	}
	sizes, blocks := sweepSizes, sweepBlocks
	if quick {
		sizes, blocks = quickSizes, quickBlocks
	}
	type program struct {
		name string
		run  func([]cpu.Config, ct.Strategy) []cpu.Report
	}
	var progs []program
	for _, w := range workloads.All() {
		p := workloads.Params{Size: sizes[w.Name()], Seed: seed}
		progs = append(progs, program{w.Name(), func(cfgs []cpu.Config, s ct.Strategy) []cpu.Report {
			return harness.RunWorkloadFanout(cfgs, w, p, s)
		}})
	}
	for _, k := range ctcrypto.All() {
		p := ctcrypto.Params{Blocks: blocks, Seed: seed}
		progs = append(progs, program{k.Name(), func(cfgs []cpu.Config, s ct.Strategy) []cpu.Report {
			return harness.RunKernelFanout(cfgs, k, p, s)
		}})
	}
	var gs []group
	for _, pr := range progs {
		for _, st := range sweepStrategies {
			cfgs := pure
			if st.bia {
				cfgs = bia
			}
			gs = append(gs, group{pr.name + "/" + st.name, func() []cpu.Report { return pr.run(cfgs, st.s) }})
		}
	}
	return gs
}

// sweep replays the grid from a trace directory: set-up records every
// key; each pass empties the in-memory store first, so every pass loads
// and decodes the stored traces as a fresh `ctbench -tracedir` run
// would. W bench goroutines each take the next group when done.
type sweep struct {
	groups   []group
	workers  int
	reset    func()
	tdir     string
	streamed uint64 // stored traces past the inline cap
}

func buildSweep(c config) (workload, error) {
	tdir := filepath.Join(c.Dir, "traces")
	reset, err := useEngine(harness.TraceOn, tdir)
	if err != nil {
		return nil, err
	}
	return &sweep{groups: sweepGroups(c.Seed, c.Quick), workers: c.Workers, reset: reset, tdir: tdir}, nil
}

func (s *sweep) setup() (passResult, error) {
	p, err := s.pass()
	if err != nil {
		return p, err
	}
	s.streamed, err = countLarger(s.tdir, streamBytes)
	return p, err
}

func (s *sweep) pass() (passResult, error) {
	s.reset()
	units := make([]unit, len(s.groups))
	insts := make([]uint64, len(s.groups))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < s.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.groups) {
					return
				}
				units[i], insts[i] = runGroup(s.groups[i])
			}
		}()
	}
	wg.Wait()
	p := passResult{Wall: time.Since(start), Units: units,
		Counts: map[string]uint64{"trace.stream_files": s.streamed}}
	for _, n := range insts {
		p.Insts += n
	}
	return p, nil
}

// runGroup times one group call and sums the instructions its reports
// count; a panic (a failed verification inside the engine) fails the
// unit instead of the run.
func runGroup(g group) (u unit, insts uint64) {
	u.ID = g.id
	start := time.Now()
	defer func() {
		u.Wall = time.Since(start)
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", g.id, r)
			u.Failed = true
		}
	}()
	reps := g.run()
	u.Sum = sha256.Sum256([]byte(fmt.Sprintf("%+v", reps)))
	for _, r := range reps {
		insts += r.Insts
	}
	return u, insts
}

// countLarger counts the files in dir larger than limit bytes.
func countLarger(dir string, limit int64) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && fi.Size() > limit {
			n++
		}
	}
	return n, nil
}
