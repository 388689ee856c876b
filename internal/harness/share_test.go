package harness

import (
	"encoding/binary"
	"os"
	"sync"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/trace"
	"ctbia/internal/workloads"
)

// Tests for config-independent trace sharing: one recording per
// (workload, params, strategy) for the pure strategies, replayed
// against every machine geometry with per-config report verification.

// sharedStrategies are the share-eligible strategies: their op/address
// streams never depend on the machine geometry.
var sharedStrategies = []ct.Strategy{ct.Direct{}, ct.Linear{}, ct.LinearVec{}}

// TestSharedKeyExcludesGeometry pins the keying rule itself: pure
// strategies key without the machine config (so every geometry maps to
// one recording), BIA-family strategies keep the config fingerprint.
func TestSharedKeyExcludesGeometry(t *testing.T) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	geos := GeoSweepGeometries()
	fpA, fpB := geos[0].Config.Fingerprint(), geos[1].Config.Fingerprint()
	if fpA == fpB {
		t.Fatal("test geometries share a fingerprint")
	}
	for _, s := range sharedStrategies {
		kA := workloadTraceKey(w, p, s, 0, fpA)
		kB := workloadTraceKey(w, p, s, 0, fpB)
		if kA == "" || kA != kB {
			t.Errorf("%s: shared strategy keys differ across geometries\nA: %q\nB: %q", s.Name(), kA, kB)
		}
	}
	if kA, kB := workloadTraceKey(w, p, ct.BIA{}, 1, fpA), workloadTraceKey(w, p, ct.BIA{}, 1, fpB); kA == kB {
		t.Errorf("BIA strategy key ignores the machine config: %q", kA)
	}
}

// TestSharedTraceSweepEquivalence is the sweep-level equivalence
// check: a multi-geometry sweep of single points with tracing on and a
// trace directory must (a) produce reports identical to direct
// execution for every geometry × workload × strategy, and (b) perform
// exactly one recording per (workload, params, strategy), serving every
// other geometry by shared replay.
func TestSharedTraceSweepEquivalence(t *testing.T) {
	useTraceDir(t)
	geos := GeoSweepGeometries()
	wls := geoSweepWorkloads(true)

	SetTraceMode(TraceOff)
	var direct []cpu.Report
	for _, g := range geos {
		for _, wl := range wls {
			for _, s := range sharedStrategies {
				direct = append(direct, RunWorkloadOn(g.Config, wl.w, wl.p, s))
			}
		}
	}
	if rec, rep, _ := TraceStats(); rec != 0 || rep != 0 {
		t.Fatalf("TraceOff sweep touched the engine: records=%d replays=%d", rec, rep)
	}

	SetTraceMode(TraceOn)
	ResetTraces()
	i := 0
	for _, g := range geos {
		for _, wl := range wls {
			for _, s := range sharedStrategies {
				got := RunWorkloadOn(g.Config, wl.w, wl.p, s)
				if got != direct[i] {
					t.Errorf("%s/%s on %s: traced sweep diverged from direct\nwant: %v\ngot:  %v",
						wl.w.Name(), s.Name(), g.Name, direct[i], got)
				}
				i++
			}
		}
	}

	points := uint64(len(wls) * len(sharedStrategies))
	rec, rep, rerec := TraceStats()
	if rec != points {
		t.Errorf("records = %d, want %d (exactly one per workload × strategy)", rec, points)
	}
	wantRep := points * uint64(len(geos)-1)
	if rep != wantRep {
		t.Errorf("replays = %d, want %d (every non-recording geometry replays)", rep, wantRep)
	}
	if rerec != 0 {
		t.Errorf("rerecords = %d, want 0", rerec)
	}
	shared, avoided := TraceShareStats()
	if shared != wantRep {
		t.Errorf("shared replays = %d, want %d (every replay crossed geometries)", shared, wantRep)
	}
	if avoided == 0 {
		t.Error("bytes_shared_avoided = 0 after shared replays")
	}
}

// TestGeoSweepTableByteIdentical runs the geometry-sweep experiment
// with the engine off, cold (record + replay) and warm (all replay)
// and requires byte-identical rendered tables — the tentpole's
// correctness bar.
func TestGeoSweepTableByteIdentical(t *testing.T) {
	useTraceDir(t)
	o := Options{Quick: true, Parallel: 1}
	SetTraceMode(TraceOff)
	off := runGeoSweep(o).Render()
	SetTraceMode(TraceOn)
	ResetTraces()
	cold := runGeoSweep(o).Render()
	warm := runGeoSweep(o).Render()
	if cold != off {
		t.Errorf("cold traced table diverged from trace-off\noff:\n%s\ncold:\n%s", off, cold)
	}
	if warm != off {
		t.Errorf("warm traced table diverged from trace-off\noff:\n%s\nwarm:\n%s", off, warm)
	}
	if rec, rep, _ := TraceStats(); rec == 0 || rep == 0 {
		t.Errorf("traced sweep did not exercise both paths: records=%d replays=%d", rec, rep)
	}
}

// TestSingleFlightRecording pins the concurrency contract: workers
// racing on one shared point over a trace directory must produce
// exactly one recording, with every other worker served by replay of
// the leader's file.
func TestSingleFlightRecording(t *testing.T) {
	useTraceDir(t)
	w := workloads.Histogram{}
	p := workloads.Params{Size: 700, Seed: 3}
	const workers = 8
	var wg sync.WaitGroup
	reports := make([]cpu.Report, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = RunWorkload(w, p, ct.Linear{}, 0)
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if reports[i] != reports[0] {
			t.Fatalf("worker %d diverged: %v vs %v", i, reports[i], reports[0])
		}
	}
	rec, rep, _ := TraceStats()
	if rec != 1 {
		t.Errorf("records = %d, want 1 (single-flight)", rec)
	}
	if rep != workers-1 {
		t.Errorf("replays = %d, want %d", rep, workers-1)
	}
}

// TestSharedAnchorPersists checks per-config report verification
// across processes: the first replay under a new geometry anchors its
// report and the anchor reaches the key's file — in the engine that
// recorded the stream or in a fresh one.
func TestSharedAnchorPersists(t *testing.T) {
	dir := t.TempDir()
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		SetTraceDir("")
		SetTraceMode(TraceOn)
		ResetTraces()
	})
	ResetTraces()

	w := workloads.Histogram{}
	p := workloads.Params{Size: 400, Seed: 13}
	s := ct.Linear{}
	geos := GeoSweepGeometries()
	cfgA, cfgB, cfgC := geos[0].Config, geos[1].Config, geos[2].Config
	key := workloadTraceKey(w, p, s, 0, cfgA.Fingerprint())
	// The engine keeps no entry, so the anchors are read off the file
	// itself.
	fileAnchors := func(stage string, cfgs ...cpu.Config) {
		t.Helper()
		buf, err := os.ReadFile(traceFilePath(dir, key))
		if err != nil {
			t.Fatal(err)
		}
		_, _, _, tags, _, err := trace.Decode(buf)
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if len(tags) != len(cfgs) {
			t.Errorf("%s: file carries %d report anchors, want %d", stage, len(tags), len(cfgs))
		}
		for _, cfg := range cfgs {
			if _, ok := tags[cfg.Fingerprint()]; !ok {
				t.Errorf("%s: file carries no anchor for %s", stage, cfg.Fingerprint())
			}
		}
	}

	SetTraceMode(TraceOff)
	wantC := RunWorkloadOn(cfgC, w, p, s)
	SetTraceMode(TraceOn)

	RunWorkloadOn(cfgA, w, p, s) // records, anchored under cfgA
	wantB := RunWorkloadOn(cfgB, w, p, s)
	if shared, _ := TraceShareStats(); shared != 1 {
		t.Fatalf("shared replays = %d, want 1", shared)
	}
	fileAnchors("after the first replay", cfgA, cfgB)

	// Fresh engine: cfgB must verify against its persisted anchor, not
	// re-anchor blind — which would rewrite (rename over) the file.
	before, err := os.Stat(traceFilePath(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	ResetTraces()
	if got := RunWorkloadOn(cfgB, w, p, s); got != wantB {
		t.Errorf("disk replay under cfgB diverged\nwant: %v\ngot:  %v", wantB, got)
	}
	if rec, rep, _ := TraceStats(); rec != 0 || rep != 1 {
		t.Errorf("disk-served run: records=%d replays=%d, want 0/1", rec, rep)
	}
	if after, err := os.Stat(traceFilePath(dir, key)); err != nil || !os.SameFile(before, after) {
		t.Errorf("replay under an anchored geometry rewrote the file (err=%v)", err)
	}
	fileAnchors("after the anchored disk replay", cfgA, cfgB)

	// Fresh engine, new geometry: the anchor a disk-served replay sets
	// is re-persisted too.
	ResetTraces()
	if got := RunWorkloadOn(cfgC, w, p, s); got != wantC {
		t.Errorf("disk replay under cfgC diverged\nwant: %v\ngot:  %v", wantC, got)
	}
	if rec, rep, _ := TraceStats(); rec != 0 || rep != 1 {
		t.Errorf("disk-served run under cfgC: records=%d replays=%d, want 0/1", rec, rep)
	}
	fileAnchors("after the disk replay under a third geometry", cfgA, cfgB, cfgC)
}

// TestV1TraceFileRerecords plants a v1-format trace file where a
// point's trace lives: it is just an undecodable file, so the point
// records once, reports exactly what direct execution does, and the
// recording writes a v2 file over the old one.
func TestV1TraceFileRerecords(t *testing.T) {
	dir := t.TempDir()
	t.Cleanup(func() {
		SetTraceDir("")
		SetTraceMode(TraceOn)
		ResetTraces()
	})
	w := workloads.Histogram{}
	p := workloads.Params{Size: 400, Seed: 9}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s, 0, tablePoolFP[0])

	SetTraceMode(TraceOff)
	want := RunWorkload(w, p, s, 0)
	SetTraceMode(TraceOn)
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	ResetTraces()

	v1 := append([]byte("CTRT"), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(v1[4:], 1) // version 1
	path := traceFilePath(dir, key)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	if got := RunWorkload(w, p, s, 0); got != want {
		t.Errorf("run over a v1 file diverged from direct\nwant: %v\ngot:  %v", want, got)
	}
	if rec, rep, rerec := TraceStats(); rec != 1 || rep != 0 || rerec != 0 {
		t.Errorf("run over a v1 file: records=%d replays=%d rerecords=%d, want 1/0/0", rec, rep, rerec)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fkey, _, _, _, _, err := trace.Decode(buf); err != nil || fkey != key {
		t.Fatalf("file after re-record does not decode as this key's v2 trace: %v", err)
	}

	// The re-recorded file replays in a fresh engine.
	ResetTraces()
	if got := RunWorkload(w, p, s, 0); got != want {
		t.Errorf("replay of the re-recorded file diverged\nwant: %v\ngot:  %v", want, got)
	}
	if rec, rep, _ := TraceStats(); rec != 0 || rep != 1 {
		t.Errorf("replay of the re-recorded file: records=%d replays=%d, want 0/1", rec, rep)
	}
}
