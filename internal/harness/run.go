package harness

import (
	"runtime"
	"sync"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/faultinject"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// poolReg holds one machine pool per config fingerprint, built on
// first use; every simulation point draws its machine from here.
// Building a Table 1 machine allocates about 5.0 MB of cache metadata;
// before pooling, `ctbench -exp all` built 200+ of them and spent a
// large fraction of its wall time allocating and collecting that churn.
// Reset restores cold state bit-identically (see the reset-equivalence
// test), so pooling never changes a table cell.
var poolReg = struct {
	sync.Mutex
	pools map[string]*cpu.Pool
}{pools: make(map[string]*cpu.Pool)}

// poolFor returns the machine pool and config fingerprint for cfg,
// creating the pool on first use.
func poolFor(cfg cpu.Config) (*cpu.Pool, string) {
	fp := cfg.Fingerprint()
	poolReg.Lock()
	p := poolReg.pools[fp]
	if p == nil {
		p = cpu.NewPool(cfg)
		poolReg.pools[fp] = p
	}
	poolReg.Unlock()
	return p, fp
}

// tableConfig is the Table 1 machine config with the BIA at the given
// level (0 = no BIA, for the insecure and software-CT runs).
func tableConfig(biaLevel int) cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.BIALevel = biaLevel
	return cfg
}

// MachineFor builds a Table 1 machine with the BIA at the given level.
// The machine is always freshly constructed — experiments that subscribe
// telemetry or otherwise hold on to machine state use this; the pooled
// fast path is internal to RunWorkload/RunKernel.
func MachineFor(biaLevel int) *cpu.Machine { return cpu.New(tableConfig(biaLevel)) }

// RunWorkload executes one workload under one strategy on a cold
// Table 1 machine drawn from its config's pool, verifies the result
// against the pure-Go reference (an experiment with a wrong answer must
// never be reported), and returns the machine's report. The point is a
// group of one in the trace engine (see runGroup).
func RunWorkload(w workloads.Workload, p workloads.Params, s ct.Strategy, biaLevel int) cpu.Report {
	return RunWorkloadOn(tableConfig(biaLevel), w, p, s)
}

// RunWorkloadOn is RunWorkload for an arbitrary machine config.
func RunWorkloadOn(cfg cpu.Config, w workloads.Workload, p workloads.Params, s ct.Strategy) cpu.Report {
	return RunWorkloadFanout([]cpu.Config{cfg}, w, p, s)[0]
}

// RunKernel is RunWorkload for the crypto kernels.
func RunKernel(k ctcrypto.Kernel, p ctcrypto.Params, s ct.Strategy, biaLevel int) cpu.Report {
	return RunKernelFanout([]cpu.Config{tableConfig(biaLevel)}, k, p, s)[0]
}

// forEachIndexed runs fn(0..n-1) on up to `workers` goroutines. Results
// are the caller's responsibility to collect into index-addressed slots,
// which keeps output order deterministic regardless of scheduling.
//
// Every invocation is panic-isolated: a panicking item is recovered
// into a PointError in the returned slice (indexed like the items, nil
// on success) and the remaining items still run. The returned slice is
// nil when every item succeeded.
//
// workers <= 1 degenerates to a plain loop — no goroutines, no
// channels — so a serial run pays nothing for the machinery. With a
// worker per item there is no contention to arbitrate, so each item
// gets its own goroutine directly instead of feeding an unbuffered
// channel (whose per-item send/receive rendezvous made a single-CPU
// "parallel" run measurably slower than serial).
func forEachIndexed(n, workers int, fn func(i int)) []*PointError {
	var errs []*PointError // allocated on first failure only
	var errMu sync.Mutex
	// slot identifies the executing worker for the per-worker
	// utilization metrics (serial runs use slot 0; with a goroutine per
	// item the item index doubles as the slot).
	call := func(slot, i int) {
		if obs.Enabled() {
			start := time.Now()
			defer func() { noteWorkerBusy(slot, time.Since(start)) }()
		}
		defer func() {
			if rec := recover(); rec != nil {
				pe := toPointError(rec)
				errMu.Lock()
				if errs == nil {
					errs = make([]*PointError, n)
				}
				errs[i] = pe
				errMu.Unlock()
			}
		}()
		fn(i)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			call(0, i)
		}
		return errs
	}
	var wg sync.WaitGroup
	if workers >= n {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				call(i, i)
			}(i)
		}
		wg.Wait()
		return errs
	}
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range idx {
				call(w, i)
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errs
}

// Result is one experiment's outcome from RunAll: the rendered table
// plus the wall time and the number of simulated machines the
// experiment used (the counters cmd/ctbench's -json trajectory files
// record across PRs). Cached marks results served from the result
// cache instead of simulation; their Machines count is zero. Err is
// set when the experiment's Run panicked (the worker recovered it);
// Table is then a FAILED placeholder. Point-level failures inside an
// otherwise-complete experiment live in Table.Failures instead.
type Result struct {
	Experiment Experiment
	Table      *Table
	Wall       time.Duration
	Machines   uint64
	Cached     bool
	Err        *PointError
	// Metrics attributes the observability registry's growth during
	// this experiment to it (nil when the layer is disarmed). With
	// concurrent experiments the windows overlap, so per-experiment
	// attribution is approximate there; run-level totals stay exact.
	Metrics map[string]uint64
	// Points counts simulation points executed during this experiment
	// (zero when the layer is disarmed); same overlap caveat as Metrics.
	// Fleet workers report it so the coordinator's /progress covers
	// remote execution.
	Points uint64
}

// Failed reports whether the experiment failed wholly or in any point.
func (r Result) Failed() bool {
	return r.Err != nil || (r.Table != nil && r.Table.Failed())
}

// machineUses counts simulated-machine acquisitions: fresh builds plus
// pool resets. With pooling, neither count alone is comparable to the
// pre-pool "machines built" trajectory metric; their sum still counts
// one per simulated run, which is the scale proxy the metric is for.
func machineUses() uint64 { return cpu.MachinesBuilt() + cpu.MachinesReset() }

// RunAll executes the given experiments — all registered ones when exps
// is nil — with o.Parallel workers, collecting results in input order so
// the output is byte-identical to a serial run. Each experiment (and,
// inside the sweep experiments, each data point) owns cold machines,
// so parallelism changes wall time only, never a table cell.
//
// Every experiment goes through the same lifecycle as a fleet unit:
// Lookup serves it from o.Cache when a usable table is stored under its
// identity key (simulator version salt, experiment ID, Quick flag,
// Table 1 config fingerprint, strategy set); otherwise RunOne executes
// it and Commit caches a clean outcome. o.Parallel is
// deliberately not part of the key: parallelism never changes a table
// cell, so serial and parallel runs share cache entries.
func RunAll(exps []Experiment, o Options) []Result {
	if exps == nil {
		exps = Experiments()
	}
	o = o.clamped()
	obs.ProgressAddTotal(len(exps))
	results := make([]Result, len(exps))
	errs := forEachIndexed(len(exps), o.Parallel, func(i int) {
		if res, ok := Lookup(exps[i], o); ok {
			results[i] = res
			return
		}
		results[i] = RunOne(exps[i], o)
		Commit(exps[i], o, results[i])
	})
	for i, pe := range errs {
		if pe != nil { // a panic outside RunOne's own recovery
			results[i] = FailedResult(exps[i], pe)
			Commit(exps[i], o, results[i])
		}
	}
	return results
}

// clamped caps Parallel at GOMAXPROCS: more workers than CPUs cannot
// help a compute-bound simulation, and the scheduling overhead can make
// it slower than serial (the PR 2 numbers on a single-CPU host did
// exactly that).
func (o Options) clamped() Options {
	if max := runtime.GOMAXPROCS(0); o.Parallel > max {
		o.Parallel = max
	}
	return o
}

// Lookup serves e from o.Cache. A usable stored table comes back as a
// cached Result, with the lookup's wall time and (when obs is armed)
// metric delta, booked as progress. A table that decodes but is
// unusable (garbage JSON body, wrong experiment) is quarantined so it
// cannot re-fail every run, and counts as a miss.
func Lookup(e Experiment, o Options) (Result, bool) {
	if o.Cache == nil {
		return Result{}, false
	}
	start := time.Now()
	obsBefore := obsSnapshot()
	key := CacheKey(e, o)
	sp := obs.StartSpan("cache-lookup", e.ID)
	t := new(Table)
	hit := o.Cache.Load(key, t)
	sp.End()
	if !hit {
		return Result{}, false
	}
	if !t.UsableFor(e.ID) {
		o.Cache.Quarantine(key)
		return Result{}, false
	}
	res := Result{Experiment: e, Table: t, Wall: time.Since(start), Cached: true, Metrics: obsDelta(obsBefore)}
	obs.ProgressExpDone(true, false)
	return res, true
}

// Commit books one executed experiment's outcome, wherever it ran. A
// clean result is saved to o.Cache (best-effort: a failed write costs
// the next run a recompute); a failed one is never cached, so a re-run
// over the same store simulates it again.
func Commit(e Experiment, o Options, res Result) {
	if !res.Failed() && o.Cache != nil {
		_ = o.Cache.Save(CacheKey(e, o), res.Table)
	}
	obs.ProgressExpDone(false, res.Failed())
}

// UsableFor validates a deserialized table before serving it as
// experiment id's result: JSON from the result cache or a fleet
// worker's upload may decode cleanly yet be garbage (a `null` body
// yields a zero table, a doctored entry can carry the wrong
// experiment). Such a table must cost a recompute, never be served.
func (t *Table) UsableFor(id string) bool {
	if t == nil || t.ID != id || len(t.Headers) == 0 {
		return false
	}
	for _, row := range t.Rows {
		if len(row) == 0 {
			return false
		}
	}
	return true
}

// RunOne executes a single experiment with panic isolation and no
// cache interaction — the one executor behind RunAll, the
// fleet coordinator's in-process drain and a fleet worker's units. An
// experiment-level panic comes back as a FailedResult.
func RunOne(e Experiment, o Options) (res Result) {
	o = o.clamped()
	start := time.Now()
	sp := obs.StartSpan("experiment", e.ID)
	defer sp.End()
	obsBefore := obsSnapshot()
	ptsBefore := obs.ProgressPoints()
	machinesBefore := machineUses()
	defer func() {
		if rec := recover(); rec != nil {
			res = FailedResult(e, toPointError(rec))
		}
		res.Wall = time.Since(start)
		res.Machines = machineUses() - machinesBefore
		res.Metrics = obsDelta(obsBefore)
		res.Points = obs.ProgressPoints() - ptsBefore
	}()
	// Chaos hook: a matching worker.panic rule kills exactly this
	// experiment; the recovery above turns it into a FAILED result while
	// the other experiments finish.
	faultinject.Check("worker.panic", e.ID, false)
	return Result{Experiment: e, Table: e.Run(o)}
}
