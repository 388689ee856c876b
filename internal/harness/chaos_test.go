package harness

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ctbia/internal/ct"
	"ctbia/internal/faultinject"
	"ctbia/internal/resultcache"
	"ctbia/internal/workloads"
)

// The chaos tier: every injected failure — a panicking worker, a
// corrupted trace or cache file, a flaky replay — must cost exactly the
// point it hits. Surviving points render byte-identically to a clean
// run, and a resumed sweep finishes.

// chaosSetup gives each chaos test a clean, self-restoring engine:
// fresh counters, no persistence, trace mode on, and fault injection
// disarmed afterwards.
func chaosSetup(t *testing.T) {
	t.Helper()
	ResetTraces()
	SetTraceMode(TraceOn)
	t.Cleanup(func() {
		faultinject.Disarm()
		SetTraceDir("")
		SetTraceMode(TraceOn)
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

// An injected transient replay fault is retried through the degraded
// direct path: same numbers, one booked retry, no quarantine yet.
func TestChaosTransientReplayRetries(t *testing.T) {
	chaosSetup(t)
	if err := SetTraceDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	w := workloads.Histogram{}
	p := workloads.Params{Size: 512, Seed: 1}

	clean := RunWorkload(w, p, ct.BIA{}, 1) // records
	arm(t, "trace.replay@1:histogram/bia")
	got := RunWorkload(w, p, ct.BIA{}, 1) // replay faults, retries direct
	faultinject.Disarm()

	if got != clean {
		t.Errorf("degraded retry report %+v, want %+v", got, clean)
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

// Degraded-mode equivalence: with the trace engine force-disabled, and
// separately with faults killing every trace read/write and cache read,
// the full experiment tables stay byte-identical and nothing fails.
func TestChaosDegradedModeEquivalence(t *testing.T) {
	chaosSetup(t)
	exps := chaosExps(t)
	o := Options{Quick: true, Parallel: 2}
	clean := renderAll(RunAll(exps, o))

	ResetTraces()
	SetTraceMode(TraceOff)
	off := RunAll(exps, o)
	SetTraceMode(TraceOn)
	for i, r := range off {
		if r.Failed() {
			t.Fatalf("trace-off run failed: %v", r.Err)
		}
		if got := r.Table.Render(); got != clean[i] {
			t.Errorf("%s: trace-off table differs:\n%s\nwant:\n%s", r.Experiment.ID, got, clean[i])
		}
	}

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
