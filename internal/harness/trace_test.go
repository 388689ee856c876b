package harness

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"ctbia/internal/attacker"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/memp"
	"ctbia/internal/trace"
	"ctbia/internal/workloads"
)

// The trace-equivalence tests are the safety net under the replay
// engine, exactly as reset_test.go is under the pool: replaying a
// recorded operation stream on a cold machine must be indistinguishable
// from running the workload — same report, same core counters, same
// per-level cache statistics, same DRAM traffic, same BIA statistics,
// and the same per-set telemetry an attacker-model SetCounter records.
// Both interpreter regimes are covered: with a telemetry listener
// subscribed every access replays through the ordinary event-emitting
// path, and without one the whole run takes the batched fast path.

// assertMachinesEqual compares every observable statistic of two
// machines that are supposed to have executed the same work, and every
// cache level's contents, LRU stamps included.
func assertMachinesEqual(t *testing.T, label string, want, got *cpu.Machine) {
	t.Helper()
	if wr, gr := want.Report(), got.Report(); wr != gr {
		t.Errorf("%s: report diverged\nwant: %v\ngot:  %v", label, wr, gr)
	}
	if want.C != got.C {
		t.Errorf("%s: core counters diverged\nwant: %+v\ngot:  %+v", label, want.C, got.C)
	}
	if want.Hier.Stats != got.Hier.Stats {
		t.Errorf("%s: DRAM stats diverged\nwant: %+v\ngot:  %+v", label, want.Hier.Stats, got.Hier.Stats)
	}
	for i := 1; i <= want.Hier.Levels(); i++ {
		if ws, gs := want.Hier.Level(i).Stats, got.Hier.Level(i).Stats; ws != gs {
			t.Errorf("%s: L%d stats diverged\nwant: %+v\ngot:  %+v", label, i, ws, gs)
		}
		if !want.Hier.SnapshotLevel(i).Equal(got.Hier.SnapshotLevel(i)) {
			t.Errorf("%s: L%d contents diverged", label, i)
		}
	}
	if want.HasBIA() != got.HasBIA() {
		t.Fatalf("%s: BIA presence diverged", label)
	}
	if want.HasBIA() && want.BIA.Stats != got.BIA.Stats {
		t.Errorf("%s: BIA stats diverged\nwant: %+v\ngot:  %+v", label, want.BIA.Stats, got.BIA.Stats)
	}
}

// recordRun executes run on a fresh machine with a recorder attached
// and returns the captured trace.
func recordRun(t *testing.T, label string, biaLevel int, wantSum uint64, run func(m *cpu.Machine) uint64) *trace.Trace {
	t.Helper()
	m := cpu.New(tableConfig(biaLevel))
	rec := trace.NewRecorder(0)
	m.SetRecorder(rec)
	if sum := run(m); sum != wantSum {
		t.Fatalf("%s: recording run checksum %#x, direct %#x", label, sum, wantSum)
	}
	m.SetRecorder(nil)
	tr, ok := rec.Take()
	if !ok {
		t.Fatalf("%s: recorder aborted", label)
	}
	return tr
}

func checkTraceEquivalence(t *testing.T, label string, biaLevel int, run func(m *cpu.Machine) uint64) {
	t.Helper()

	// Direct execution, with telemetry subscribed (listeners only
	// observe, so this machine is the reference for both regimes).
	direct := cpu.New(tableConfig(biaLevel))
	scDirect := attacker.NewSetCounter(direct.Hier, 1)
	sum := run(direct)

	tr := recordRun(t, label, biaLevel, sum, run)

	// Replay with telemetry: every access goes through the ordinary
	// event-emitting path, so the attacker's view must match too.
	slow := cpu.New(tableConfig(biaLevel))
	scSlow := attacker.NewSetCounter(slow.Hier, 1)
	slow.ExecTrace(tr.Ops)
	assertMachinesEqual(t, label+"/replay-telemetry", direct, slow)
	if !attacker.Equal(scDirect.Counts(), scSlow.Counts()) {
		t.Errorf("%s: per-set telemetry vectors diverged under replay", label)
	}

	// Replay without telemetry: on BIA-less machines this is the
	// batched fast path end to end.
	fast := cpu.New(tableConfig(biaLevel))
	fast.ExecTrace(tr.Ops)
	assertMachinesEqual(t, label+"/replay-batched", direct, fast)
}

func TestTraceEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p := workloads.Params{Size: resetSize(w), Seed: 1}
		for _, st := range resetStrategies {
			w, st := w, st
			checkTraceEquivalence(t, w.Name()+"/"+st.name, st.cfg.BIALevel,
				func(m *cpu.Machine) uint64 { return w.Run(m, st.s, p) })
		}
	}
}

func TestTraceEquivalenceKernels(t *testing.T) {
	kernelStrategies := []struct {
		name     string
		s        ct.Strategy
		biaLevel int
	}{
		{"insecure", ct.Direct{}, 0},
		{"bia-l1", ct.BIA{}, 1},
		{"bia-macro", ct.BIAMacro{}, 1},
		{"ct", ct.Linear{}, 0},
	}
	for _, k := range ctcrypto.All() {
		p := ctcrypto.Params{Blocks: 4, Seed: 1}
		for _, st := range kernelStrategies {
			k, st := k, st
			checkTraceEquivalence(t, k.Name()+"/"+st.name, st.biaLevel,
				func(m *cpu.Machine) uint64 { return k.Run(m, st.s, p) })
		}
	}
}

// useTraceDir gives a test a fresh engine over its own trace directory,
// the engine's one switch and only store, and restores the default
// engine (no directory: every point runs direct) afterwards.
func useTraceDir(t testing.TB) string {
	t.Helper()
	dir := t.TempDir()
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	ResetTraces()
	t.Cleanup(func() {
		SetTraceDir("")
		ResetTraces()
	})
	return dir
}

// TestRunWorkloadReplays pins the end-to-end engine behaviour with a
// trace directory: the first RunWorkload of a point records, the second
// replays, and both report identically.
func TestRunWorkloadReplays(t *testing.T) {
	useTraceDir(t)
	w := workloads.Histogram{}
	p := workloads.Params{Size: 600, Seed: 17}

	r1 := RunWorkload(w, p, ct.Linear{}, 0)
	if rec, rep, _ := TraceStats(); rec != 1 || rep != 0 {
		t.Fatalf("first run: records=%d replays=%d, want 1/0", rec, rep)
	}
	r2 := RunWorkload(w, p, ct.Linear{}, 0)
	if rec, rep, _ := TraceStats(); rec != 1 || rep != 1 {
		t.Fatalf("second run: records=%d replays=%d, want 1/1", rec, rep)
	}
	if r1 != r2 {
		t.Errorf("replayed report diverged\nfirst:  %v\nsecond: %v", r1, r2)
	}
}

// TestNoTraceDirKeepsNothing pins the engine's contract without a trace
// directory: every point runs direct, and the engine records, replays
// and keeps nothing. A single point run twice, and a fan-out group over
// the four geosweep geometries called twice, each report what a direct
// run on each config does and book no engine counter.
func TestNoTraceDirKeepsNothing(t *testing.T) {
	ResetTraces()
	t.Cleanup(ResetTraces)
	w := workloads.Histogram{}
	p := workloads.Params{Size: 600, Seed: 19}
	s := ct.Linear{}
	geos, _ := geoConfigGroups()

	// counts reads the counters each call is judged by: records,
	// replays, shared replays, fan-out passes and decode passes.
	counts := func() [5]uint64 {
		rec, rep, _ := TraceStats()
		shared, _ := TraceShareStats()
		fanouts, passes, _ := TraceFanoutStats()
		return [5]uint64{rec, rep, shared, fanouts, passes}
	}
	wantPoint := RunWorkload(w, p, s, 0)
	if got := RunWorkload(w, p, s, 0); got != wantPoint {
		t.Errorf("repeated point diverged\nwant: %v\ngot:  %v", wantPoint, got)
	}
	wantGroup := make([]cpu.Report, len(geos))
	for i, cfg := range geos {
		wantGroup[i] = RunWorkloadOn(cfg, w, p, s)
	}
	if c := counts(); c != ([5]uint64{}) {
		t.Errorf("single points: records, replays, shared, fan-outs, decode passes = %v, want all 0", c)
	}

	for call := 1; call <= 2; call++ {
		before := counts()
		got := RunWorkloadFanout(geos, w, p, s)
		for i := range geos {
			if got[i] != wantGroup[i] {
				t.Errorf("group call %d: config %d diverged from direct\nwant: %v\ngot:  %v", call, i, wantGroup[i], got[i])
			}
		}
		delta := counts()
		for i := range delta {
			delta[i] -= before[i]
		}
		if delta != ([5]uint64{}) {
			t.Errorf("group call %d: records, replays, shared, fan-outs, decode passes = %v, want all 0", call, delta)
		}
	}
}

// TestUntraceableStrategiesBypass pins that strategies whose behaviour
// is not a pure function of their value never enter the trace store,
// even over a trace directory: a hooked preload, whose unhooked twin
// records, and a hooked BIA.
func TestUntraceableStrategiesBypass(t *testing.T) {
	dir := useTraceDir(t)
	w := workloads.Histogram{}
	p := workloads.Params{Size: 300, Seed: 5}

	hook := func(point ct.HookPoint, page memp.Addr) {}
	for _, c := range []struct {
		s        ct.Strategy
		biaLevel int
	}{{ct.Preload{Hook: hook}, 0}, {ct.BIA{Hook: hook}, 1}} {
		r1 := RunWorkload(w, p, c.s, c.biaLevel)
		r2 := RunWorkload(w, p, c.s, c.biaLevel)
		if r1 != r2 {
			t.Errorf("hooked %s runs diverged: %v vs %v", c.s.Name(), r1, r2)
		}
	}
	if rec, rep, _ := TraceStats(); rec != 0 || rep != 0 {
		t.Fatalf("hooked strategy entered the trace engine: records=%d replays=%d", rec, rep)
	}
	if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
		t.Errorf("trace directory holds %d entries (err %v), want none", len(files), err)
	}
}

// TestGeometryDependentPointsRunDirect pins that a trace directory
// leaves the BIA family alone: its op streams read the BIA's bitmaps,
// which mirror the cache, so a recording would replay only on the
// geometry that made it. Fan-out calls of every BIA-family strategy
// across the geosweep ladder, with the BIA at the L1 and at the L2,
// record and replay nothing, leave the directory empty and report
// exactly what they do with no directory.
func TestGeometryDependentPointsRunDirect(t *testing.T) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 300, Seed: 7}
	k := ctcrypto.All()[0]
	kp := ctcrypto.Params{Blocks: 2, Seed: 7}
	strats := []ct.Strategy{ct.BIA{}, ct.BIA{Threshold: 3}, ct.BIAMacro{}}
	// run makes every fan-out call, a workload and a kernel per BIA
	// level and strategy, and returns their reports and labels.
	run := func() (reps [][]cpu.Report, labels []string) {
		for _, level := range []int{1, 2} {
			var cfgs []cpu.Config
			for _, g := range GeoSweepGeometries() {
				cfg := g.Config
				cfg.BIALevel = level
				cfgs = append(cfgs, cfg)
			}
			for _, s := range strats {
				reps = append(reps, RunWorkloadFanout(cfgs, w, p, s), RunKernelFanout(cfgs, k, kp, s))
				labels = append(labels,
					fmt.Sprintf("%s/%s@%d", w.Name(), s.Name(), level),
					fmt.Sprintf("%s/%s@%d", k.Name(), s.Name(), level))
			}
		}
		return reps, labels
	}
	ResetTraces()
	want, _ := run() // no directory: direct
	dir := useTraceDir(t)
	for _, stage := range []string{"first call", "repeat"} {
		got, labels := run()
		for i := range want {
			for j := range want[i] {
				if got[i][j] != want[i][j] {
					t.Errorf("%s, %s config %d: report diverged from no directory\nwant: %v\ngot:  %v",
						stage, labels[i], j, want[i][j], got[i][j])
				}
			}
		}
		if rec, rep, _ := TraceStats(); rec != 0 || rep != 0 {
			t.Errorf("%s: records=%d replays=%d, want 0/0", stage, rec, rep)
		}
		if files, err := os.ReadDir(dir); err != nil || len(files) != 0 {
			t.Errorf("%s: trace directory holds %d entries (err %v), want none", stage, len(files), err)
		}
	}
}

// TestCorruptTraceFallsBack corrupts a stored trace in every way replay
// verification can catch — wrong expected report, wrong checksum, a
// mangled op stream — and checks each silently re-records instead of
// returning a wrong table cell. Each corruption is written back as a
// well-formed file, so it is the replay's verification that catches
// it, not the CRC.
func TestCorruptTraceFallsBack(t *testing.T) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 400, Seed: 23}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s)
	if key == "" {
		t.Fatal("expected a traceable point")
	}

	corruptions := map[string]func(e *traceEntry){
		"report": func(e *traceEntry) {
			for fp, r := range e.reps {
				r.Cycles++
				e.reps[fp] = r
			}
		},
		"checksum": func(e *traceEntry) { e.sum ^= 1 },
		"ops": func(e *traceEntry) {
			// Dropping the tail changes the replayed instruction and
			// cycle counts, which the stored report then contradicts.
			e.ops = append([]trace.Op(nil), e.ops[:len(e.ops)-1]...)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := useTraceDir(t)
			want := RunWorkload(w, p, s, 0)
			rewriteTrace(t, dir, key, corrupt)

			got := RunWorkload(w, p, s, 0)
			if got != want {
				t.Errorf("corrupted trace leaked into a report\nwant: %v\ngot:  %v", want, got)
			}
			if _, _, rerec := TraceStats(); rerec != 1 {
				t.Errorf("rerecords = %d, want 1", rerec)
			}
			// The re-recorded entry must serve the next run.
			if got := RunWorkload(w, p, s, 0); got != want {
				t.Errorf("post-fallback replay diverged: %v vs %v", got, want)
			}
		})
	}
}

// rewriteTrace decodes the key's file in dir, applies edit to it and
// writes it back as a well-formed file.
func rewriteTrace(t *testing.T, dir, key string, edit func(e *traceEntry)) {
	t.Helper()
	path := traceFilePath(dir, key)
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no trace stored for the expected key: %v", err)
	}
	fkey, src, meta, tags, ops, err := trace.Decode(buf)
	if err != nil || fkey != key || len(meta) != 1 {
		t.Fatalf("stored trace does not decode as the key's: key ok=%v, meta %v, err %v", fkey == key, meta, err)
	}
	e := &traceEntry{ops: ops, sum: meta[0], src: src, reps: repsFromTags(tags)}
	edit(e)
	tags = make(map[string][]uint64, len(e.reps))
	for fp, r := range e.reps {
		tags[fp] = packReport(r)
	}
	if err := os.WriteFile(path, trace.Encode(key, e.src, []uint64{e.sum}, tags, e.ops), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptTraceInReadOnlyDir plants a stale report anchor in a trace
// file the engine cannot remove, because its directory is read-only.
// The point must re-record once and return the direct report instead
// of looking the key up, and replaying the same stale file, forever.
func TestCorruptTraceInReadOnlyDir(t *testing.T) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 400, Seed: 23}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s)
	want := RunWorkload(w, p, s, 0) // no directory yet: direct
	dir := useTraceDir(t)
	RunWorkload(w, p, s, 0) // records the key's file
	rewriteTrace(t, dir, key, func(e *traceEntry) {
		for fp, r := range e.reps {
			r.Cycles++
			e.reps[fp] = r
		}
	})
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	if f, err := os.CreateTemp(dir, "probe-*"); err == nil {
		f.Close()
		os.Remove(f.Name())
		t.Skip("directory permissions do not bind this user (CAP_DAC_OVERRIDE)")
	}
	ResetTraces()

	if got := RunWorkload(w, p, s, 0); got != want {
		t.Errorf("stale trace leaked into a report\nwant: %v\ngot:  %v", want, got)
	}
	if rec, rep, rerec := TraceStats(); rec != 1 || rep != 0 || rerec != 1 {
		t.Errorf("records/replays/rerecords = %d/%d/%d, want 1/0/1", rec, rep, rerec)
	}
	if _, err := os.Stat(traceFilePath(dir, key)); err != nil {
		t.Errorf("the stale file should have outlived its drop: %v", err)
	}
}

// TestTracePersistence round-trips a trace through the on-disk store:
// a fresh process image (simulated by ResetTraces) replays from the
// file, and a corrupted file is silently re-recorded.
func TestTracePersistence(t *testing.T) {
	dir := t.TempDir()
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		SetTraceDir("")
		ResetTraces()
	})
	ResetTraces()

	w := workloads.BinarySearch{}
	p := workloads.Params{Size: 500, Seed: 31, Ops: 6}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s)

	want := RunWorkload(w, p, s, 0)
	path := traceFilePath(dir, key)
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("recording did not persist a trace file: %v", err)
	}

	// New in-memory state: the entry must come back from disk.
	ResetTraces()
	if got := RunWorkload(w, p, s, 0); got != want {
		t.Errorf("disk replay diverged\nwant: %v\ngot:  %v", want, got)
	}
	if rec, rep, _ := TraceStats(); rec != 0 || rep != 1 {
		t.Errorf("disk-served run: records=%d replays=%d, want 0/1", rec, rep)
	}

	// Corrupt the file: the load must miss and the point re-record.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/3] ^= 0x10
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ResetTraces()
	if got := RunWorkload(w, p, s, 0); got != want {
		t.Errorf("run after file corruption diverged\nwant: %v\ngot:  %v", want, got)
	}
	if rec, _, _ := TraceStats(); rec != 1 {
		t.Errorf("corrupted file was not re-recorded: records=%d", rec)
	}
}

// TestOversizedTraceFileIsMiss plants a sparse file one byte larger
// than any recording writes at a point's trace path. Lookup must refuse
// it without reading it: the point records, reports exactly what direct
// execution does, allocates less than the file's size, and the
// recording writes the key's trace over the file.
func TestOversizedTraceFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	t.Cleanup(func() {
		SetTraceDir("")
		ResetTraces()
	})
	w := workloads.Histogram{}
	p := workloads.Params{Size: 400, Seed: 29}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s)

	want := RunWorkload(w, p, s, 0) // direct; also warms the machine pool
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	ResetTraces()

	path := traceFilePath(dir, key)
	planted := int64(trace.MaxWireSize(maxTraceOps)) + 1
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, planted); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := RunWorkload(w, p, s, 0)
	runtime.ReadMemStats(&after)
	if got != want {
		t.Errorf("run over an oversized file diverged from direct\nwant: %v\ngot:  %v", want, got)
	}
	if rec, rep, rerec := TraceStats(); rec != 1 || rep != 0 || rerec != 0 {
		t.Errorf("run over an oversized file: records=%d replays=%d rerecords=%d, want 1/0/0", rec, rep, rerec)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(planted) {
		t.Errorf("run over a %d-byte file allocated %d bytes: the file was read", planted, grew)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fkey, _, _, _, _, err := trace.Decode(buf); err != nil || fkey != key {
		t.Fatalf("file after the recording does not decode as this key's trace: key ok=%v, err=%v", fkey == key, err)
	}
}
