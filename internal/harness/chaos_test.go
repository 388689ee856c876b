package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/faultinject"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
	"ctbia/internal/workloads"
)

// The chaos tier: every injected failure — a panicking worker, a
// corrupted trace or cache file, a flaky replay — must cost exactly the
// point it hits. Surviving points render byte-identically to a clean
// run, and a resumed sweep finishes.

// chaosSetup gives each chaos test a clean, self-restoring engine:
// fresh counters, no trace directory, and fault injection disarmed
// afterwards.
func chaosSetup(t *testing.T) {
	t.Helper()
	ResetTraces()
	t.Cleanup(func() {
		faultinject.Disarm()
		SetTraceDir("")
		ResetTraces()
	})
}

func arm(t *testing.T, spec string) {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(inj)
}

// chaosExps is a small experiment set with distinct IDs to kill and to
// keep alive.
func chaosExps(t *testing.T) []Experiment {
	t.Helper()
	var out []Experiment
	for _, id := range []string{"fig2", "relatedwork"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, e)
	}
	return out
}

func renderAll(results []Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Table.Render()
	}
	return out
}

// An injected worker panic fails exactly its experiment; the survivor's
// table is byte-identical to a clean run's.
func TestChaosWorkerPanicIsolation(t *testing.T) {
	chaosSetup(t)
	exps := chaosExps(t)
	o := Options{Quick: true, Parallel: 2}

	clean := renderAll(RunAll(exps, o))

	ResetTraces()
	arm(t, "worker.panic@1:fig2")
	results := RunAll(exps, o)
	faultinject.Disarm()

	if !results[0].Failed() || results[0].Err == nil {
		t.Fatalf("fig2 should have failed; Err=%v", results[0].Err)
	}
	if results[0].Err.Experiment != "fig2" {
		t.Fatalf("failure attributed to %q, want fig2", results[0].Err.Experiment)
	}
	if results[1].Failed() {
		t.Fatalf("relatedwork must survive fig2's panic: %v", Failures(results))
	}
	if got := results[1].Table.Render(); got != clean[1] {
		t.Errorf("survivor table changed under chaos:\nclean:\n%s\nchaos:\n%s", clean[1], got)
	}
	if fails := Failures(results); len(fails) != 1 {
		t.Fatalf("want exactly 1 failure, got %d: %v", len(fails), fails)
	}
	// The FAILED placeholder still renders (ctbench prints it).
	if !strings.Contains(results[0].Table.Render(), "FAILED") {
		t.Errorf("placeholder table missing FAILED row:\n%s", results[0].Table.Render())
	}
}

// ctPanics is a histogram whose software-CT run panics at one size.
type ctPanics struct {
	workloads.Histogram
	size int
}

func (w ctPanics) Run(m *cpu.Machine, s ct.Strategy, p workloads.Params) uint64 {
	if p.Size == w.size && s.Name() == "ct" {
		panic("injected ct failure")
	}
	return w.Histogram.Run(m, s, p)
}

// A Fig. 7 row is four runs spread over the workers: one panicking run
// fails its own row, naming the strategy, and every other row renders
// as in a clean panel, at any worker count.
func TestChaosStrategyPanicFailsItsRow(t *testing.T) {
	chaosSetup(t)
	sizes := []int{200, 300, 400}
	clean := fig7("fig7x", workloads.Histogram{}, sizes, sizes)(Options{Parallel: 1})
	for _, par := range []int{1, 2, 16} {
		got := fig7("fig7x", ctPanics{size: 300}, sizes, sizes)(Options{Parallel: par})
		if len(got.Failures) != 1 {
			t.Fatalf("parallel %d: %d failures, want 1: %v", par, len(got.Failures), got.Failures)
		}
		if pe := got.Failures[0]; pe.Point != "hist_300" || pe.Strategy != "ct" || pe.Experiment != "fig7x" {
			t.Errorf("parallel %d: failure located at %q/%q/%q, want fig7x/hist_300/ct", par, pe.Experiment, pe.Point, pe.Strategy)
		}
		want := [][]string{clean.Rows[0], {"hist_300", "FAILED", "FAILED", "FAILED"}, clean.Rows[2]}
		for i := range want {
			if strings.Join(got.Rows[i], "|") != strings.Join(want[i], "|") {
				t.Errorf("parallel %d: row %d = %v, want %v", par, i, got.Rows[i], want[i])
			}
		}
	}
}

// A corrupted trace file on disk — real flipped bytes, not a mock — is
// a silent miss: the point re-records and reports exactly the clean
// numbers.
func TestChaosCorruptedTraceFileOnDisk(t *testing.T) {
	chaosSetup(t)
	dir := t.TempDir()
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	w := workloads.Histogram{}
	p := workloads.Params{Size: 512, Seed: 1}

	clean := RunWorkload(w, p, ct.BIA{}, 1)
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want one persisted trace, got %v (err %v)", files, err)
	}
	buf, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xff
	if err := os.WriteFile(files[0], buf, 0o644); err != nil {
		t.Fatal(err)
	}

	ResetTraces() // a fresh engine, as in a new process
	got := RunWorkload(w, p, ct.BIA{}, 1)
	if got != clean {
		t.Errorf("report after on-disk corruption %+v, want %+v", got, clean)
	}
	if recs, replays, _ := TraceStats(); replays != 0 || recs != 1 {
		t.Errorf("corrupt file should re-record, not replay: records=%d replays=%d", recs, replays)
	}
	if _, quarantined := TraceFaultStats(); quarantined != 0 {
		t.Errorf("plain disk corruption is a miss, not a transient failure")
	}
}

// An injected transient replay fault is retried at once by re-recording
// the point: same numbers, one booked retry, no quarantine yet.
func TestChaosTransientReplayRetries(t *testing.T) {
	chaosSetup(t)
	if err := SetTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	w := workloads.Histogram{}
	p := workloads.Params{Size: 512, Seed: 1}

	clean := RunWorkload(w, p, ct.BIA{}, 1) // records
	arm(t, "trace.replay@1:histogram/bia")
	got := RunWorkload(w, p, ct.BIA{}, 1) // replay faults, re-records
	faultinject.Disarm()

	if got != clean {
		t.Errorf("retry report %+v, want %+v", got, clean)
	}
	retries, quarantined := TraceFaultStats()
	if retries != 1 || quarantined != 0 {
		t.Errorf("retries=%d quarantined=%d, want 1/0", retries, quarantined)
	}
	// Next run replays normally again (the fault was @1, one-shot).
	if again := RunWorkload(w, p, ct.BIA{}, 1); again != clean {
		t.Errorf("post-fault replay %+v, want %+v", again, clean)
	}
}

// A point that keeps failing transiently is quarantined after
// quarantineAfter attempts and bypasses the engine forever after —
// never an unbounded retry loop, and still always the right numbers.
func TestChaosRepeatOffenderQuarantined(t *testing.T) {
	chaosSetup(t)
	if err := SetTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	w := workloads.Histogram{}
	p := workloads.Params{Size: 512, Seed: 1}

	clean := RunWorkload(w, p, ct.BIA{}, 1)
	arm(t, "trace.replay:histogram/bia") // every replay attempt faults
	for i := 0; i < quarantineAfter+2; i++ {
		if got := RunWorkload(w, p, ct.BIA{}, 1); got != clean {
			t.Fatalf("run %d under persistent faults: %+v, want %+v", i, got, clean)
		}
	}
	faultinject.Disarm()

	retries, quarantined := TraceFaultStats()
	if retries != quarantineAfter {
		t.Errorf("retries=%d, want exactly %d (quarantine must stop the retrying)", retries, quarantineAfter)
	}
	if quarantined != 1 {
		t.Errorf("quarantined=%d, want 1", quarantined)
	}
	qp := QuarantinedPoints()
	if len(qp) != 1 || qp[0] != "histogram/bia" {
		t.Errorf("QuarantinedPoints()=%v, want [histogram/bia]", qp)
	}
	// Quarantine outlives the fault plan: the key stays on the direct
	// path (correct numbers, no new replays) until ResetTraces.
	before, _, _ := TraceStats()
	if got := RunWorkload(w, p, ct.BIA{}, 1); got != clean {
		t.Errorf("quarantined direct run %+v, want %+v", got, clean)
	}
	if after, _, _ := TraceStats(); after != before {
		t.Errorf("quarantined key must not re-record (records %d -> %d)", before, after)
	}
}

// A replay fault inside a fan-out group over a trace directory drops
// the stream and re-records on the first unserved config, whose
// recording serves the rest of the group; under a fault on every replay
// the key is quarantined after quarantineAfter recordings and the last
// config runs direct. Every report equals direct execution and each
// config is one simulation point, whichever path served it.
func TestChaosGroupReplayFault(t *testing.T) {
	chaosSetup(t)
	defer obsReset()
	cfgs, _ := geoConfigGroups()
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	s := ct.Linear{}
	want := RunWorkloadFanout(cfgs, w, p, s) // no directory yet: direct

	for _, c := range []struct {
		name, spec string
		// records, replays, rerecords, fan-out passes, decode passes,
		// retries, quarantined keys
		want [7]uint64
	}{
		{"dir/once", "trace.replay@1", [7]uint64{2, 2, 1, 1, 1, 1, 0}},
		{"dir/every", "trace.replay", [7]uint64{3, 0, 3, 0, 0, 3, 1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if err := SetTraceDir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			ResetTraces()
			obsReset()
			obs.Arm()
			arm(t, c.spec)
			got := RunWorkloadFanout(cfgs, w, p, s)
			faultinject.Disarm()
			if points := obs.ProgressPoints(); points != uint64(len(cfgs)) {
				t.Errorf("booked %d points for a %d-config group", points, len(cfgs))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("config %d: report %+v, want %+v", i, got[i], want[i])
				}
			}
			var n [7]uint64
			n[0], n[1], n[2] = TraceStats()
			n[3], n[4], _ = TraceFanoutStats()
			n[5], n[6] = TraceFaultStats()
			if n != c.want {
				t.Errorf("records/replays/rerecords/fan-outs/decode passes/retries/quarantined = %v, want %v", n, c.want)
			}
		})
	}
}

// Degraded-mode equivalence: with faults killing every trace read and
// write over a trace directory, and every cache read, the full
// experiment tables stay byte-identical to a direct run (no trace
// directory) and nothing fails.
func TestChaosDegradedModeEquivalence(t *testing.T) {
	chaosSetup(t)
	exps := chaosExps(t)
	o := Options{Quick: true, Parallel: 2}
	clean := renderAll(RunAll(exps, o))

	ResetTraces()
	if err := SetTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	store, err := resultcache.Open(t.TempDir(), resultcache.ReadWrite, SimVersionSalt)
	if err != nil {
		t.Fatal(err)
	}
	arm(t, "trace.read;trace.write;cache.read")
	faulted := RunAll(exps, Options{Quick: true, Parallel: 2, Cache: store})
	faultinject.Disarm()
	for i, r := range faulted {
		if r.Failed() {
			t.Fatalf("I/O-faulted run failed: %v", r.Err)
		}
		if r.Cached {
			t.Errorf("%s: cache.read fault should force a recompute", r.Experiment.ID)
		}
		if got := r.Table.Render(); got != clean[i] {
			t.Errorf("%s: I/O-faulted table differs:\n%s\nwant:\n%s", r.Experiment.ID, got, clean[i])
		}
	}
}

// The resume flow end to end: a sweep with one injected panic journals
// the failure, a second run with the same cache and manifest re-runs
// only the failed experiment, and the finished sweep matches a clean
// one.
func TestChaosResumeCompletesSweep(t *testing.T) {
	chaosSetup(t)
	exps := chaosExps(t)
	clean := renderAll(RunAll(exps, Options{Quick: true, Parallel: 2}))

	dir := t.TempDir()
	store, err := resultcache.Open(dir, resultcache.ReadWrite, SimVersionSalt)
	if err != nil {
		t.Fatal(err)
	}
	mpath := filepath.Join(dir, ManifestName)

	ResetTraces()
	arm(t, "worker.panic@1:relatedwork")
	first := RunAll(exps, Options{Quick: true, Parallel: 2, Cache: store, Manifest: NewManifest(mpath, true)})
	faultinject.Disarm()
	if !first[1].Failed() || first[0].Failed() {
		t.Fatalf("want only relatedwork failed: %v", Failures(first))
	}

	// "New process": reload the journal as ctbench -resume does.
	m, stale, err := LoadManifest(mpath, true)
	if err != nil || stale {
		t.Fatalf("LoadManifest: stale=%v err=%v", stale, err)
	}
	if okN, failedN := m.Summary(); okN != 1 || failedN != 1 {
		t.Fatalf("manifest summary ok=%d failed=%d, want 1/1", okN, failedN)
	}
	if e, ok := m.Entry("relatedwork"); !ok || e.Status != "failed" || e.Error == "" {
		t.Fatalf("failed entry not journaled: %+v ok=%v", e, ok)
	}

	second := RunAll(exps, Options{Quick: true, Parallel: 2, Cache: store, Manifest: m})
	if !second[0].Cached {
		t.Errorf("previously-ok fig2 should be served from the cache on resume")
	}
	if second[1].Cached {
		t.Errorf("failed relatedwork must not have been cached")
	}
	for i, r := range second {
		if r.Failed() {
			t.Fatalf("resume run failed: %v", r.Err)
		}
		if got := r.Table.Render(); got != clean[i] {
			t.Errorf("%s: resumed table differs:\n%s\nwant:\n%s", r.Experiment.ID, got, clean[i])
		}
	}
	if okN, failedN := m.Summary(); okN != 2 || failedN != 0 {
		t.Errorf("post-resume summary ok=%d failed=%d, want 2/0", okN, failedN)
	}
}

// A cache entry that decodes cleanly but is garbage (a JSON `null`
// body) must be quarantined and recomputed, never served.
func TestChaosGarbageJSONCacheEntry(t *testing.T) {
	chaosSetup(t)
	exps := chaosExps(t)[:1]
	dir := t.TempDir()
	store, err := resultcache.Open(dir, resultcache.ReadWrite, SimVersionSalt)
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Quick: true, Parallel: 1, Cache: store}
	clean := RunAll(exps, o)

	key := CacheKey(exps[0], o)
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("null\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ResetTraces()
	again := RunAll(exps, o)
	if again[0].Cached {
		t.Fatalf("a null entry must not be served")
	}
	if store.Quarantined() == 0 {
		t.Errorf("unusable entry was not quarantined")
	}
	if got, want := again[0].Table.Render(), clean[0].Table.Render(); got != want {
		t.Errorf("recomputed table differs:\n%s\nwant:\n%s", got, want)
	}
}

// Manifest mechanics: journal entries survive the write/load round
// trip, and incompatible journals come back stale instead of poisoning
// a resume.
func TestManifestRoundTripAndStaleness(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)

	if _, _, err := LoadManifest(path, true); err == nil {
		t.Fatalf("loading a missing manifest must error (nothing to resume)")
	}

	m := NewManifest(path, true)
	m.Record("fig2", ManifestEntry{Status: "ok", Key: "k1", WallMS: 1.5})
	m.Record("fig9", ManifestEntry{Status: "failed", Key: "k2", Error: "boom"})

	got, stale, err := LoadManifest(path, true)
	if err != nil || stale {
		t.Fatalf("round trip: stale=%v err=%v", stale, err)
	}
	if !got.Done("fig2", "k1") {
		t.Errorf("fig2/k1 should be done")
	}
	if got.Done("fig2", "other-key") {
		t.Errorf("a different cache key must not count as done")
	}
	if got.Done("fig9", "k2") {
		t.Errorf("a failed entry must not count as done")
	}
	if e, ok := got.Entry("fig2"); !ok || e.Completed == "" {
		t.Errorf("entries must carry completion timestamps: %+v", e)
	}

	// Quick-flag mismatch: the journal is stale, not an error.
	if _, stale, err := LoadManifest(path, false); err != nil || !stale {
		t.Errorf("quick mismatch: stale=%v err=%v, want stale", stale, err)
	}
	// A torn/corrupt journal is stale, not fatal.
	if err := os.WriteFile(path, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stale, err := LoadManifest(path, true); err != nil || !stale {
		t.Errorf("corrupt journal: stale=%v err=%v, want stale", stale, err)
	}
}
