package harness

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/trace"
	"ctbia/internal/workloads"
)

// Tests for config-independent trace sharing: one recording per
// (workload, params, strategy), replayed against every machine
// geometry with per-config report verification.

// sharedStrategies are the pure strategies the geometry sweep traces:
// their op/address streams never depend on the machine geometry.
var sharedStrategies = []ct.Strategy{ct.Direct{}, ct.Linear{}, ct.LinearVec{}}

// TestSharedKeyExcludesGeometry pins the keying rule itself: a
// traceable strategy keys without the machine config, in the "shared"
// form trace files are named by, so every geometry of a sweep maps to
// one recording; a BIA-family strategy, whose stream reads the BIA's
// bitmaps and so depends on the geometry, has no key at all and runs
// direct.
func TestSharedKeyExcludesGeometry(t *testing.T) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	k := ctcrypto.All()[0]
	kp := ctcrypto.Params{Blocks: 4, Seed: 1}
	if got, want := workloadTraceKey(w, p, ct.Linear{}), SimVersionSalt+"\x1fw:histogram\x1f500/1/0\x1fct\x1fshared"; got != want {
		t.Errorf("workload key %q, want %q", got, want)
	}
	if got, want := kernelTraceKey(k, kp, ct.Direct{}), SimVersionSalt+"\x1fk:"+k.Name()+"\x1f4/1\x1finsecure\x1fshared"; got != want {
		t.Errorf("kernel key %q, want %q", got, want)
	}
	for _, s := range append(append([]ct.Strategy(nil), sharedStrategies...), ct.Preload{}) {
		if key := workloadTraceKey(w, p, s); !strings.HasSuffix(key, "\x1fshared") {
			t.Errorf("%s: key %q is not config-free", s.Name(), key)
		}
	}
	for _, s := range []ct.Strategy{ct.BIA{}, ct.BIA{Threshold: 3}, ct.BIAMacro{}} {
		if key := workloadTraceKey(w, p, s); key != "" {
			t.Errorf("%s: geometry-dependent workload point keyed %q, want no key", s.Name(), key)
		}
		if key := kernelTraceKey(k, kp, s); key != "" {
			t.Errorf("%s: geometry-dependent kernel point keyed %q, want no key", s.Name(), key)
		}
	}

	// An unhooked preload's key is the same on every geometry: a point
	// run on each geometry of the ladder records one file, under that
	// key, and replays it on the rest.
	dir := useTraceDir(t)
	geos := GeoSweepGeometries()
	for _, g := range geos {
		RunWorkloadOn(g.Config, w, p, ct.Preload{})
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.trace"))
	if err != nil || len(files) != 1 || files[0] != traceFilePath(dir, workloadTraceKey(w, p, ct.Preload{})) {
		t.Errorf("preload across %d geometries left files %v (err %v), want its key's one file", len(geos), files, err)
	}
	if rec, rep, _ := TraceStats(); rec != 1 || rep != uint64(len(geos)-1) {
		t.Errorf("preload across %d geometries: records=%d replays=%d, want 1/%d", len(geos), rec, rep, len(geos)-1)
	}
}

// TestSharedTraceSweepEquivalence is the sweep-level equivalence
// check: a multi-geometry sweep of single points over a trace directory
// must (a) produce reports identical to direct execution for every
// geometry × workload × strategy, and (b) perform exactly one recording
// per (workload, params, strategy), serving every other geometry by
// shared replay.
func TestSharedTraceSweepEquivalence(t *testing.T) {
	geos := GeoSweepGeometries()
	wls := geoSweepWorkloads(true)

	ResetTraces()
	var direct []cpu.Report
	for _, g := range geos {
		for _, wl := range wls {
			for _, s := range sharedStrategies {
				direct = append(direct, RunWorkloadOn(g.Config, wl.w, wl.p, s))
			}
		}
	}
	if rec, rep, _ := TraceStats(); rec != 0 || rep != 0 {
		t.Fatalf("sweep without a trace directory touched the engine: records=%d replays=%d", rec, rep)
	}

	useTraceDir(t)
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
// direct (no trace directory), cold (record + replay) and warm (all
// replay) and requires byte-identical rendered tables — the tentpole's
// correctness bar.
func TestGeoSweepTableByteIdentical(t *testing.T) {
	o := Options{Quick: true, Parallel: 1}
	direct := runGeoSweep(o).Render()
	useTraceDir(t)
	cold := runGeoSweep(o).Render()
	warm := runGeoSweep(o).Render()
	if cold != direct {
		t.Errorf("cold traced table diverged from direct\ndirect:\n%s\ncold:\n%s", direct, cold)
	}
	if warm != direct {
		t.Errorf("warm traced table diverged from direct\ndirect:\n%s\nwarm:\n%s", direct, warm)
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
	w := workloads.Histogram{}
	p := workloads.Params{Size: 400, Seed: 13}
	s := ct.Linear{}
	geos := GeoSweepGeometries()
	cfgA, cfgB, cfgC := geos[0].Config, geos[1].Config, geos[2].Config
	wantC := RunWorkloadOn(cfgC, w, p, s) // no directory yet: direct
	dir := useTraceDir(t)
	key := workloadTraceKey(w, p, s)
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
	w := workloads.Histogram{}
	p := workloads.Params{Size: 400, Seed: 9}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s)

	want := RunWorkload(w, p, s, 0) // no directory yet: direct
	dir := useTraceDir(t)

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
