package harness

import (
	"runtime"
	"strings"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// obsReset restores the global observability state; the harness tests
// sharing the process must not see each other's (or these tests')
// metrics. Not safe with t.Parallel.
func obsReset() {
	obs.Disarm()
	obs.Reset()
	obs.ResetProgress()
	obs.DisableTimeline()
	obs.ResetTimeline()
}

func firstWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	all := workloads.All()
	if len(all) == 0 {
		t.Fatal("no workloads registered")
	}
	return all[0]
}

// TestDisarmedRunCollectsNothing pins the zero-cost contract at the
// harness level: a disarmed run must push nothing into the registry —
// no new names interned, no value moved. Names interned by earlier
// armed tests persist at zero by design (the registry never forgets a
// touched counter), so the check is a before/after snapshot diff, not
// an emptiness assertion. (Pull-side sources like the trace engine
// report their own live counters in every snapshot, so those are
// excluded.)
func TestDisarmedRunCollectsNothing(t *testing.T) {
	defer obsReset()
	obsReset()
	w := firstWorkload(t)
	before := obs.Snapshot()
	RunWorkload(w, workloads.Params{Size: resetSize(w), Seed: 1}, ct.BIA{}, 1)
	for name, v := range obs.Snapshot() {
		if strings.HasPrefix(name, "trace.") || strings.HasPrefix(name, "resultcache.") {
			continue
		}
		if bv, ok := before[name]; !ok || bv != v {
			t.Errorf("disarmed run pushed %s=%d", name, v)
		}
	}
}

// TestArmedRunHarvestsAllLayers runs one point armed over a trace
// directory and checks the acceptance-criteria metrics appear: BIA
// lines skipped, per-level cache stats, CT probe outcomes, page-cache
// and trace counters.
func TestArmedRunHarvestsAllLayers(t *testing.T) {
	defer obsReset()
	obsReset()
	useTraceDir(t)
	obs.Arm()
	// ResetTraces leaves the trace byte counters alone (bench takes
	// per-pass deltas of them), so they are judged by deltas over this
	// test's own runs.
	base := obs.Snapshot()
	w := firstWorkload(t)
	p := workloads.Params{Size: resetSize(w), Seed: 1}
	RunWorkload(w, p, ct.BIA{}, 1)
	snap := obs.Snapshot()
	for _, name := range []string{
		"cpu.cycles", "cpu.ct_loads", "cpu.ct_probe_hits",
		"bia.ds_lines_total", "bia.lookups",
		"cache.L1d.accesses", "mem.page_hits",
	} {
		if snap[name] == 0 {
			t.Errorf("%s = 0 after an armed BIA run, want > 0", name)
		}
	}
	// Every cache level appears by name (a warm small workload may
	// legitimately have zero outer-level accesses, so presence only).
	for _, name := range []string{"cache.L2.accesses", "cache.LLC.accesses"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("%s missing from armed snapshot", name)
		}
	}
	if snap["bia.ds_lines_skipped"]+snap["bia.ds_lines_total"] == 0 {
		t.Error("DS savings metrics absent")
	}
	// The trace source must be wired in (records the first run).
	if recs, bytes := snap["trace.records"]-base["trace.records"], snap["trace.bytes_recorded"]-base["trace.bytes_recorded"]; recs == 0 || bytes == 0 {
		t.Errorf("trace source metrics missing: records=%d bytes=%d", recs, bytes)
	}

	// A replayed repeat harvests the same machine-side metrics again —
	// pooled machines must start clean (the reset-leak guard end to end).
	first := snap["cpu.cycles"]
	RunWorkload(w, p, ct.BIA{}, 1)
	snap2 := obs.Snapshot()
	if snap2["cpu.cycles"] != 2*first {
		t.Errorf("second (replayed) run harvested cpu.cycles %d, want exactly 2x the first run's %d — pooled machine leaked stats",
			snap2["cpu.cycles"], first)
	}
	if reps, bytes := snap2["trace.replays"]-snap["trace.replays"], snap2["trace.bytes_replayed"]-snap["trace.bytes_replayed"]; reps == 0 || bytes == 0 {
		t.Errorf("replay metrics missing: replays=%d bytes=%d", reps, bytes)
	}
}

// TestArmedRunDoesNotChangeResults pins output neutrality: the report
// must be identical armed and disarmed.
func TestArmedRunDoesNotChangeResults(t *testing.T) {
	defer obsReset()
	obsReset()
	defer ResetTraces()
	ResetTraces()
	w := firstWorkload(t)
	p := workloads.Params{Size: resetSize(w), Seed: 1}
	disarmed := RunWorkload(w, p, ct.BIA{}, 1)
	ResetTraces()
	obs.Arm()
	obs.EnableTimeline()
	armed := RunWorkload(w, p, ct.BIA{}, 1)
	if disarmed != armed {
		t.Fatalf("observability changed the report:\ndisarmed: %v\narmed:    %v", disarmed, armed)
	}
	if obs.TimelineEventCount() == 0 {
		t.Fatal("timeline collected no spans from an enabled run")
	}
}

// TestRunAllJournalsMetricsAndProvenance checks that an armed RunAll
// returns the experiment's metrics delta and books its progress — what
// ctbench's -json report records per experiment — and that the
// provenance stamp beside them is filled in.
func TestRunAllJournalsMetricsAndProvenance(t *testing.T) {
	defer obsReset()
	obsReset()
	obs.Arm()

	exp, err := ByID("fig2")
	if err != nil {
		t.Fatal(err)
	}
	results := RunAll([]Experiment{exp}, Options{Quick: true})
	if len(results) != 1 || results[0].Failed() {
		t.Fatalf("experiment failed: %+v", results[0].Err)
	}
	if len(results[0].Metrics) == 0 {
		t.Fatal("armed RunAll returned no per-experiment metrics")
	}
	if p := NewProvenance("test-flags"); p.GoVersion == "" || p.ConfigHash == "" ||
		p.Salt != SimVersionSalt || p.Flags != "test-flags" {
		t.Fatalf("provenance wrong: %+v", p)
	}

	// Progress accounting booked the experiment.
	total, done, failed, _, points := obs.ProgressCounts()
	if total != 1 || done != 1 || failed != 0 {
		t.Fatalf("progress counts = %d/%d/%d", total, done, failed)
	}
	if points == 0 {
		t.Fatal("no simulation points booked")
	}
}

// TestOneMachineLifecycle pins that every experiment simulates through
// runGroup: each machine comes from a pool, so a repeat of a serial
// sweep builds none, even after a GC, and each is harvested and
// observed, so every experiment that simulates books instructions and
// points.
func TestOneMachineLifecycle(t *testing.T) {
	defer obsReset()
	obsReset()
	obs.Arm()
	for _, r := range RunAll(nil, Options{Quick: true, Parallel: 1}) {
		if id := r.Experiment.ID; id != "config" && id != "table2" && (r.Metrics["cpu.insts"] == 0 || r.Points == 0) {
			t.Errorf("%s: cpu.insts %d, points %d; want both > 0", id, r.Metrics["cpu.insts"], r.Points)
		}
	}
	runtime.GC()
	built := cpu.MachinesBuilt()
	RunAll(nil, Options{Quick: true, Parallel: 1})
	if n := cpu.MachinesBuilt() - built; n != 0 {
		t.Errorf("a repeated serial sweep built %d machines, want 0", n)
	}
}

// Tables must be byte-identical whether the registry is disarmed or
// armed: observation never feeds back into simulation.
func TestTablesByteIdenticalArmedOrDisarmed(t *testing.T) {
	defer obsReset()
	obsReset()
	defer ResetTraces()
	ResetTraces()
	exps := Experiments()
	if len(exps) == 0 {
		t.Fatal("no experiments registered")
	}
	exp := exps[0]
	for _, e := range exps {
		if e.ID == "fig2" {
			exp = e
			break
		}
	}

	render := func(armed bool) string {
		obsReset()
		ResetTraces()
		if armed {
			obs.Arm()
		}
		res := RunAll([]Experiment{exp}, Options{Quick: true, Parallel: 2})
		if len(res) != 1 || res[0].Failed() {
			t.Fatalf("experiment failed: %+v", res[0].Err)
		}
		return res[0].Table.Render()
	}

	disarmed := render(false)
	armed := render(true)
	if disarmed != armed {
		t.Fatalf("tables diverged between disarmed and armed runs:\n--- disarmed ---\n%s\n--- armed ---\n%s", disarmed, armed)
	}
}
