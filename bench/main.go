// Command bench is the repository's benchmark: it regenerates the
// paper's tables and sweeps through the entry points users call
// (harness.RunAll, the fan-out sweep calls, the fleet coordinator and
// workers) and reports host-time metrics end to end and per layer.
//
//	bash bench/run.sh --workload suite-direct --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all     # every workload, untraced and traced
//
// Each workload runs in child processes of this one, one at a time.
// --trace 0 starts three; each times its own set-up, and the first then
// runs paper-scale passes for --seconds. --trace 1 starts one that
// runs an untraced pass and then CPU-profiled passes, and attributes the
// profile to the repository's layers. The last line of standard output
// is the result as one JSON object. See README.md for the metrics.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many fresh processes a timed run sets up; setup_s is
// their median. minPasses is the fewest timed passes in a run, so that
// wall_s is never a single sample.
const (
	setups    = 3
	minPasses = 3
)

// countMetrics are the layers' counters reported by the traced run,
// per pass.
var countMetrics = []struct{ name, unit string }{
	{"cpu.insts", "count"}, {"cpu.cycles", "count"},
	{"cpu.machines_built", "count"}, {"cpu.machines_reused", "count"},
	{"cache.L1d.accesses", "count"}, {"cache.LLC.misses", "count"},
	{"mem.dram_reads", "count"}, {"bia.lookups", "count"}, {"bia.snoops", "count"},
	{"trace.records", "count"}, {"trace.replays", "count"},
	{"trace.shared_replays", "count"}, {"trace.fanout_replays", "count"},
	{"trace.decode_passes", "count"}, {"trace.bytes_recorded", "B"},
	{"trace.bytes_replayed", "B"}, {"trace.stream_files", "count"},
	{"trace.retries", "count"}, {"trace.quarantined", "count"},
	{"resultcache.writes", "count"}, {"manifest.commits", "count"},
	{"manifest.bytes_written", "B"}, {"fleet.leases_granted", "count"},
	{"fleet.results_accepted", "count"}, {"fleet.dedup_hits", "count"},
	{"fleet.heartbeats", "count"}, {"fleet.metric_entries", "count"},
	{"fleet.local_units", "count"},
}

// options are the parent's flags.
type options struct {
	seed    int64
	seconds float64
	workers int
	quick   bool
	stdout  io.Writer
	stderr  io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "-child" {
		return childMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or 'all' for every workload untraced and traced")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a profiled run")
	o := options{stdout: stdout, stderr: stderr}
	fs.Int64Var(&o.seed, "seed", 1, "input seed: the secret inputs of sweep-replay's programs")
	fs.Float64Var(&o.seconds, "seconds", 20, "seconds of timed passes per run")
	fs.IntVar(&o.workers, "workers", min(2, runtime.NumCPU()), "simulation threads (at most the CPU count)")
	fs.BoolVar(&o.quick, "quick", false, "Quick experiment sizes and a shrunken sweep grid (smoke runs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var names []string
	for _, w := range catalogue {
		if *name == w.name || *name == "all" {
			names = append(names, w.name)
		}
	}
	switch {
	case len(names) == 0:
		fmt.Fprintf(stderr, "bench: unknown -workload %q\n", *name)
		return 2
	case *traceFlag != 0 && *traceFlag != 1:
		fmt.Fprintf(stderr, "bench: -trace %d: want 0 or 1\n", *traceFlag)
		return 2
	case o.seconds <= 0:
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	case o.workers < 1 || o.workers > runtime.NumCPU():
		fmt.Fprintf(stderr, "bench: -workers %d: want 1..%d (the CPU count)\n", o.workers, runtime.NumCPU())
		return 2
	}

	load := loadavg()
	fmt.Fprintf(stdout, "bench: workload=%s seed=%d seconds=%g workers=%d numcpu=%d gomaxprocs=%d go=%s revision=%s\n",
		*name, o.seed, o.seconds, o.workers, runtime.NumCPU(), o.workers, runtime.Version(), revision())
	// An interrupted run stops its child before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	dir, err := os.MkdirTemp("", "ctbia-bench-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, n := range names {
		modes := []bool{*traceFlag == 1}
		if *name == "all" {
			modes = []bool{false, true}
		}
		for _, traced := range modes {
			r, err := measure(ctx, o, n, traced, dir)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
				return 1
			}
			total.Correct = total.Correct && r.Correct
			total.Attempted += r.Attempted
			total.Failed += r.Failed
			for k, m := range r.Metrics {
				if *name == "all" {
					k = n + "." + k
				}
				total.Metrics[k] = m
			}
		}
	}
	fmt.Fprintf(stdout, "bench: loadavg start=%q end=%q\n", load, loadavg())
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// measure runs one workload in child processes and aggregates their
// reports into the run's metrics.
func measure(ctx context.Context, o options, name string, traced bool, dir string) (result, error) {
	// The first child sets up and runs every pass of the run, so that the
	// passes share one warm process and the run's whole --seconds; the
	// others only set up, so that setup_s is a median over fresh
	// processes.
	children := setups
	if o.quick || traced {
		children = 1
	}
	scale := "paper"
	if o.quick {
		scale = "quick"
	}
	instsPath, err := buildFile("insts", name+"-"+scale)
	if err != nil {
		return result{}, err
	}
	cached := cachedCount(instsPath)
	res := result{Metrics: map[string]metric{}}
	var rs []childResult
	var setupS []float64
	for i := 0; i < children; i++ {
		budget, passes := 0.0, 0
		if i == 0 {
			budget, passes = o.seconds, minPasses
		}
		args := []string{
			"-workload", name, "-seed", fmt.Sprint(o.seed), "-workers", fmt.Sprint(o.workers),
			"-seconds", fmt.Sprint(budget), "-passes", fmt.Sprint(passes), "-insts", fmt.Sprint(cached),
			"-dir", filepath.Join(dir, fmt.Sprintf("%s-%v-%d", name, traced, i)),
		}
		if o.quick {
			args = append(args, "-quick", "-samples", "100")
		}
		if traced {
			args = append(args, "-mode", "traced")
		}
		r, err := spawn(ctx, o, args)
		if err != nil {
			return result{}, err
		}
		rs = append(rs, r)
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		setupS = append(setupS, r.SetupS)
		// A set-up pass at full scale (sweep-replay's recording) must
		// give the same output in every child.
		if r.Digest != "" && r.Digest != rs[0].Digest {
			fmt.Fprintf(o.stderr, "bench: %s: children disagree on the output digest\n", name)
			res.Failed = res.Attempted
		}
	}
	r := rs[0]
	if cached == 0 && r.Insts != 0 {
		if err := record(instsPath, fmt.Sprint(r.Insts)); err != nil {
			return result{}, err
		}
	}
	if name != "sweep-replay" {
		path, err := buildFile("digests", scale)
		if err == nil {
			err = matchDigest(path, r.Digest)
		}
		if err != nil {
			fmt.Fprintf(o.stderr, "bench: %s: %v\n", name, err)
			res.Failed = res.Attempted
		}
	}
	fmt.Fprintf(o.stdout, "bench: %s sim.digest=%s\n", name, r.Digest)

	set := func(n, unit string, v float64) { res.Metrics[n] = metric{Value: v, Unit: unit} }
	if !traced {
		wall := median(r.WallsS)
		set("wall_s", "s", wall)
		set("sim_minst_per_s", "Minst/s", float64(r.Insts)/wall/1e6)
		set("unit_gmean_ms", "ms", unitGmean(r.UnitMS))
		set("setup_s", "s", median(setupS))
		set("peak_rss_mb", "MiB", r.PeakRSSMB)
		fmt.Fprintf(o.stdout, "bench: %s passes=%d wall_s=%v setup_s=%v %s\n",
			name, len(r.WallsS), r.WallsS, setupS, unitPercentiles(r.UnitMS))
	} else {
		var totalNS int64
		for _, ns := range r.Profile.CPU {
			totalNS += ns
		}
		n := float64(len(r.TracedWallsS))
		for _, l := range layers {
			ns := float64(r.Profile.CPU[l])
			set("layer."+l+".cpu_s", "s", ns/1e9/n)
			set("layer."+l+".share", "ratio", ns/float64(max(totalNS, 1)))
		}
		for _, c := range countMetrics {
			set(c.name, c.unit, float64(r.Counts[c.name]))
		}
		set("bia.ds_skip_ratio", "ratio", ratio(r.Counts["bia.ds_lines_skipped"], r.Counts["bia.ds_lines_total"]))
		set("trace.replay_ratio", "ratio", ratio(r.Counts["trace.replays"], r.Counts["points"]))
		set("trace_overhead_pct", "%", (median(r.TracedWallsS)/median(r.WallsS)-1)*100)
		set("profile.samples", "count", float64(r.Profile.Samples))
	}
	res.Correct = res.Failed == 0
	printMetrics(o.stdout, name, res)
	return res, nil
}

// spawn runs one child process of this executable and decodes its
// report. Children see GOMAXPROCS set to the worker count, so a run
// never has more simulation threads than it claims.
func spawn(ctx context.Context, o options, args []string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, 170*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, append([]string{"-child"}, args...)...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", o.workers))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = o.stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("child %v: %w", args, err)
	}
	var r childResult
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return childResult{}, fmt.Errorf("child report: %w", err)
	}
	return r, nil
}

// buildFile is where runs of one build share what they learn about it:
// the table digest suite-direct, suite-traced and fleet-sweep must agree
// on, and each workload's simulated instruction count per pass. It lies
// beside the executable, keyed by its hash so that two builds never share
// one.
func buildFile(kind, name string) (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(bin)
	return filepath.Join(filepath.Dir(exe), kind, hex.EncodeToString(sum[:8])+"-"+name), nil
}

// cachedCount reads a count recorded at path, or 0 if there is none.
func cachedCount(path string) uint64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	n, _ := strconv.ParseUint(string(b), 10, 64)
	return n
}

// matchDigest records digest at path, or fails if another workload
// already recorded a different one there.
func matchDigest(path, digest string) error {
	prev, err := os.ReadFile(path)
	switch {
	case err == nil && string(prev) != digest:
		return fmt.Errorf("table digest %s differs from %s recorded by another suite workload", digest, prev)
	case err == nil:
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	return record(path, digest)
}

// record writes s to path, creating its directory.
func record(path, s string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(s), 0o644)
}

func printMetrics(w io.Writer, name string, r result) {
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := r.Metrics[k]
		v := strconv.FormatFloat(m.Value, 'g', 6, 64)
		if m.Value == math.Trunc(m.Value) && math.Abs(m.Value) < 1e15 {
			v = strconv.FormatFloat(m.Value, 'f', 0, 64)
		}
		fmt.Fprintf(w, "%-14s %-28s %16s %s\n", name, k, v, m.Unit)
	}
	fmt.Fprintf(w, "%-14s units attempted=%d failed=%d failed_frac=%g\n", name, r.Attempted, r.Failed,
		float64(r.Failed)/float64(max(r.Attempted, 1)))
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// loadavg returns the first three fields of /proc/loadavg, so a loaded
// host is visible in the output.
func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// revision is the VCS revision the binary was built from, when the
// build saw one.
func revision() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+modified"
		}
	}
	return rev + dirty
}
