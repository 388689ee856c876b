package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/harness"
	"ctbia/internal/obs"
)

// processStart anchors setup_s: package main initializes after every
// package it imports, so this is as close to exec as the process gets.
var processStart = time.Now()

// childResult is what one child process reports to the parent.
type childResult struct {
	SetupS    float64              `json:"setup_s"`
	WallsS    []float64            `json:"walls_s"` // untraced timed passes
	UnitMS    map[string][]float64 `json:"unit_ms"` // unit ID -> latencies in those passes
	Insts     uint64               `json:"insts"`   // simulated instructions per pass
	Digest    string               `json:"digest"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	PeakRSSMB float64              `json:"peak_rss_mb"`

	// Traced mode only.
	TracedWallsS []float64         `json:"traced_walls_s,omitempty"`
	Profile      layerProfile      `json:"profile"`
	Counts       map[string]uint64 `json:"counts,omitempty"`
}

// childMain is the entry point of a child process: it builds one
// workload, runs its set-up pass, then either timed passes (mode
// "timed") or untraced and profiled passes (mode "traced"), and prints
// a childResult as JSON.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	var c config
	fs.StringVar(&c.Workload, "workload", "", "")
	fs.Int64Var(&c.Seed, "seed", 1, "")
	fs.IntVar(&c.Workers, "workers", 1, "")
	fs.BoolVar(&c.Quick, "quick", false, "")
	fs.StringVar(&c.Dir, "dir", "", "")
	mode := fs.String("mode", "timed", "")
	budget := fs.Float64("seconds", 1, "")
	minPasses := fs.Int("passes", 1, "")
	minSamples := fs.Int64("samples", 2000, "")
	insts := fs.Uint64("insts", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	res, err := runChild(c, *mode == "traced", seconds(*budget), *minPasses, *minSamples, *insts)
	if err != nil {
		fmt.Fprintf(stderr, "bench child %s: %v\n", c.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "bench child %s: %v\n", c.Workload, err)
		return 1
	}
	return 0
}

// checker compares every pass's units with the first comparable pass's:
// the recording pass for sweep-replay, the first paper-scale pass
// otherwise.
type checker struct {
	ref       map[string][sha256.Size]byte
	attempted int
	failed    int
}

// check counts a pass's units, failing those that failed themselves or
// whose output differs from the same unit's reference output.
func (ck *checker) check(p passResult) {
	first := ck.ref == nil && !p.Warmup
	if first {
		ck.ref = make(map[string][sha256.Size]byte, len(p.Units))
	}
	for _, u := range p.Units {
		ck.attempted++
		if first {
			ck.ref[u.ID] = u.Sum
		}
		if u.Failed || (!p.Warmup && u.Sum != ck.ref[u.ID]) {
			ck.failed++
		}
	}
}

// digest folds the reference unit digests in unit-ID order ("" before
// any reference).
func (ck *checker) digest() string {
	if ck.ref == nil {
		return ""
	}
	ids := make([]string, 0, len(ck.ref))
	for id := range ck.ref {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		sum := ck.ref[id]
		h.Write([]byte(id))
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runChild sets the workload up, then runs passes until they fill budget
// and either minPasses timed passes ran or, when traced, the profile
// holds minSamples samples. insts is the simulated instruction count per
// pass that an earlier run of the same build measured, or 0.
func runChild(c config, traced bool, budget time.Duration, minPasses int, minSamples int64, insts uint64) (childResult, error) {
	res := childResult{UnitMS: map[string][]float64{}}
	var spec func(config) (workload, error)
	for _, w := range catalogue {
		if w.name == c.Workload {
			spec = w.build
		}
	}
	if spec == nil {
		return res, fmt.Errorf("unknown workload %q", c.Workload)
	}
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return res, err
	}
	w, err := spec(c)
	if err != nil {
		return res, err
	}
	var ck checker
	setup, err := w.setup()
	if err != nil {
		return res, err
	}
	res.SetupS = time.Since(processStart).Seconds()
	ck.check(setup)

	// The instruction count comes from the workload's own output where
	// it reports one, else from an earlier run of this build, else from
	// one untimed pass with the registry armed (arming adds a harvest per
	// simulation point, so that pass would not time like the others).
	res.Insts = setup.Insts
	if res.Insts == 0 {
		res.Insts = insts
	}
	armed := obs.Enabled()
	if !traced && minPasses > 0 && res.Insts == 0 {
		obs.Arm()
		m, err := measured(w)
		if !armed {
			obs.Disarm()
		}
		if err != nil {
			return res, err
		}
		ck.check(m.pass)
		res.Insts = m.counts["cpu.insts"]
	}

	// Timed mode runs untraced passes. Traced mode runs one untraced
	// pass, the base of the overhead figure, then profiled passes with
	// the registry armed. A pass starts only if it would end nearer the
	// budget than the run already is, judged by the median pass so far.
	start := time.Now()
	var counts []map[string]uint64
	for {
		walls, enough := res.WallsS, len(res.WallsS) >= minPasses
		if traced {
			walls, enough = res.TracedWallsS, len(res.WallsS) > 0 && res.Profile.Samples >= minSamples
		}
		if enough && (len(walls) == 0 || time.Since(start)+seconds(median(walls)/2) > budget) {
			break
		}
		profiled := traced && len(res.WallsS) > 0
		if profiled {
			obs.Arm()
		}
		var buf bytes.Buffer
		if profiled {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return res, err
			}
		}
		m, err := measured(w)
		if profiled {
			pprof.StopCPUProfile()
		}
		if !armed {
			obs.Disarm()
		}
		if err != nil {
			return res, err
		}
		ck.check(m.pass)
		if !profiled {
			res.WallsS = append(res.WallsS, m.pass.Wall.Seconds())
			for _, u := range m.pass.Units {
				res.UnitMS[u.ID] = append(res.UnitMS[u.ID], float64(u.Wall)/float64(time.Millisecond))
			}
			continue
		}
		lp, err := foldProfile(buf.Bytes())
		if err != nil {
			return res, err
		}
		res.Profile.add(lp)
		res.TracedWallsS = append(res.TracedWallsS, m.pass.Wall.Seconds())
		counts = append(counts, m.counts)
	}
	res.Digest = ck.digest()
	res.Attempted, res.Failed = ck.attempted, ck.failed
	if traced {
		res.Counts = medianCounts(counts)
	}
	res.PeakRSSMB, err = peakRSSMB()
	return res, err
}

// seconds converts a float number of seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measuredPass is a pass with the layer counters it moved.
type measuredPass struct {
	pass   passResult
	counts map[string]uint64
}

// measured runs one pass and collects the per-pass counts: registry
// deltas (exact while the registry is armed), the trace engine's own
// counters (reset at the start of every pass), machine-pool counters,
// and whatever the workload reads from its sinks.
func measured(w workload) (measuredPass, error) {
	before := obs.Snapshot()
	points := obs.ProgressPoints()
	built, reused := cpu.MachinesBuilt(), cpu.MachinesReset()
	p, err := w.pass()
	if err != nil {
		return measuredPass{}, err
	}
	after := obs.Snapshot()
	reg := func(name string) uint64 { return after[name] - before[name] - p.Merged[name] }
	c := map[string]uint64{
		"cpu.insts":            reg("cpu.insts"),
		"cpu.cycles":           reg("cpu.cycles"),
		"cpu.machines_built":   cpu.MachinesBuilt() - built,
		"cpu.machines_reused":  cpu.MachinesReset() - reused,
		"cache.L1d.accesses":   reg("cache.L1d.accesses"),
		"cache.LLC.misses":     reg("cache.LLC.misses"),
		"mem.dram_reads":       reg("mem.dram_reads"),
		"bia.lookups":          reg("bia.lookups"),
		"bia.snoops":           reg("bia.snoops"),
		"bia.ds_lines_skipped": reg("bia.ds_lines_skipped"),
		"bia.ds_lines_total":   reg("bia.ds_lines_total"),
		"trace.bytes_recorded": reg("trace.bytes_recorded"),
		"trace.bytes_replayed": reg("trace.bytes_replayed"),
		"points":               obs.ProgressPoints() - points,
	}
	c["trace.records"], c["trace.replays"], _ = harness.TraceStats()
	c["trace.shared_replays"], _ = harness.TraceShareStats()
	c["trace.fanout_replays"], c["trace.decode_passes"], _ = harness.TraceFanoutStats()
	c["trace.retries"], c["trace.quarantined"] = harness.TraceFaultStats()
	for k, v := range p.Counts {
		c[k] = v
	}
	return measuredPass{pass: p, counts: c}, nil
}

// medianCounts is the per-key median over passes; exact counters are
// equal on every pass, schedule-dependent ones settle on their middle.
func medianCounts(passes []map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for k := range passes[0] {
		vals := make([]float64, len(passes))
		for i, p := range passes {
			vals[i] = float64(p[k])
		}
		out[k] = uint64(median(vals))
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}
