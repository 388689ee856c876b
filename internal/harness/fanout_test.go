package harness

import (
	"fmt"
	"os"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/trace"
	"ctbia/internal/workloads"
)

// Fan-out replay tests: grouped sweeps served by one decode pass per
// shared stream must be bit-identical to direct execution — for every
// geometry × strategy, from a fresh recording and from disk, and across
// every fallback (torn files included). The decode-pass counter is the
// efficiency contract: one pass per distinct trace key, not one per
// replay served.

// geoStrategies mirrors runGeoSweep's strategy set: the pure strategies
// fan out over one shared key; BIA keys per config, so each of its
// configs is a group of one.
var geoStrategies = []struct {
	s   ct.Strategy
	bia bool
}{
	{ct.Direct{}, false},
	{ct.BIA{}, true},
	{ct.Linear{}, false},
	{ct.LinearVec{}, false},
}

func geoConfigGroups() (pure, bia []cpu.Config) {
	geos := GeoSweepGeometries()
	pure = make([]cpu.Config, len(geos))
	bia = make([]cpu.Config, len(geos))
	for i, g := range geos {
		pure[i] = g.Config
		bia[i] = g.Config
		bia[i].BIALevel = 1
	}
	return pure, bia
}

// TestFanoutEquivalenceGeoSweep checks every geometry × strategy of the
// geosweep grid over a trace directory: fan-out groups must return
// exactly the reports direct execution (no directory) produces, and a warm
// sweep must perform one decode pass per distinct trace key — shared
// keys fan out (one pass serves four geometries), BIA keys replay per
// config.
func TestFanoutEquivalenceGeoSweep(t *testing.T) {
	pureCfgs, biaCfgs := geoConfigGroups()
	wls := geoSweepWorkloads(true)

	direct := make(map[int][]cpu.Report)
	for wi, wl := range wls {
		for si, st := range geoStrategies {
			cfgs := pureCfgs
			if st.bia {
				cfgs = biaCfgs
			}
			reps := make([]cpu.Report, len(cfgs))
			for i, cfg := range cfgs {
				reps[i] = RunWorkloadOn(cfg, wl.w, wl.p, st.s)
			}
			direct[wi*len(geoStrategies)+si] = reps
		}
	}

	useTraceDir(t)
	sweep := func() {
		for wi, wl := range wls {
			for si, st := range geoStrategies {
				cfgs := pureCfgs
				if st.bia {
					cfgs = biaCfgs
				}
				got := RunWorkloadFanout(cfgs, wl.w, wl.p, st.s)
				want := direct[wi*len(geoStrategies)+si]
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("%s/%s config %d: fan-out diverged from direct\nwant: %v\ngot:  %v",
							wl.w.Name(), st.s.Name(), i, want[i], got[i])
					}
				}
			}
		}
	}
	sweep() // cold: records every key, fans out over fresh recordings
	_, passesBefore, _ := TraceFanoutStats()
	_, repsBefore, _ := TraceStats()
	sweep() // warm: everything replays
	fanouts, passes, avoided := TraceFanoutStats()
	_, reps, _ := TraceStats()

	nGeos := len(pureCfgs)
	sharedKeys := len(wls) * 3         // pure strategies share one key per (workload, strategy)
	biaKeys := len(wls) * nGeos        // BIA keys per (workload, geometry)
	wantPasses := sharedKeys + biaKeys // one decode pass per distinct key
	wantReplays := sharedKeys*nGeos + biaKeys
	if got := int(passes - passesBefore); got != wantPasses {
		t.Errorf("warm sweep decode passes = %d, want %d (one per distinct trace key)", got, wantPasses)
	}
	if got := int(reps - repsBefore); got != wantReplays {
		t.Errorf("warm sweep replays = %d, want %d (every point served)", got, wantReplays)
	}
	if fanouts == 0 {
		t.Error("no fan-out passes booked across a shared-key sweep")
	}
	if avoided == 0 {
		t.Error("decode_bytes_avoided = 0 after fan-out passes")
	}
}

// TestFanoutGeoSweepTableByteIdentical is the table-level pin: the
// geosweep experiment rendered direct (no trace directory) and with
// warm fan-out replay must be byte-identical, and the warm sweep must
// actually fan out.
func TestFanoutGeoSweepTableByteIdentical(t *testing.T) {
	o := Options{Quick: true, Parallel: 1}
	direct := runGeoSweep(o).Render()

	useTraceDir(t)
	runGeoSweep(o) // cold
	fanoutsBefore, _, _ := TraceFanoutStats()
	fanned := runGeoSweep(o).Render()
	fanouts, _, _ := TraceFanoutStats()

	if fanned != direct {
		t.Errorf("fan-out warm table diverged from direct\ndirect:\n%s\nfan-out:\n%s", direct, fanned)
	}
	if fanouts == fanoutsBefore {
		t.Error("fan-out sweep booked no fan-out passes — did the groups fall back?")
	}
}

// TestFanoutParallelSweep drives the grouped geosweep with concurrent
// workers (the -race CI job runs this at oversubscribed GOMAXPROCS):
// fan-out groups racing on pools and the trace engine must produce the
// same rendered table as the serial sweep, cold and warm. Each sweep
// runs over a trace directory, so the cold one reaches single-flight
// and persistence and the warm one replays every group from the files.
func TestFanoutParallelSweep(t *testing.T) {
	useTraceDir(t)
	serial := Options{Quick: true, Parallel: 1}
	parallel := Options{Quick: true, Parallel: 4}
	want := runGeoSweep(serial).Render() // cold, serial
	useTraceDir(t)                       // an empty directory: the parallel sweep starts cold
	if got := runGeoSweep(parallel).Render(); got != want {
		t.Errorf("cold parallel fan-out sweep diverged from serial\nserial:\n%s\nparallel:\n%s", want, got)
	}
	recBefore, _, _ := TraceStats()
	if got := runGeoSweep(parallel).Render(); got != want {
		t.Errorf("warm parallel fan-out sweep diverged from serial\nserial:\n%s\nparallel:\n%s", want, got)
	}
	if rec, _, _ := TraceStats(); rec != recBefore {
		t.Errorf("warm parallel sweep recorded %d streams, want 0 (every group replays its file)", rec-recBefore)
	}
}

// TestReplayChunkSources drives the one replay path over both places a
// stream comes from, charged to one config or fanned out over four
// geometries, from a clean or a torn file. The cold stage records, and
// a group of four charges its other three configs from that recording,
// which lives for the one call. The warm stage reads the key's file
// whole, decodes and replays it and keeps nothing, in the same engine
// (streaming=false) or in a fresh one (streaming=true); no stream
// outlives its call, so both must behave alike. The stream spans two
// chunks. Reports must equal direct execution at every stage; a warm
// group must be one decode pass (a fan-out pass only for a group of two
// or more) that leaves the file as it found it; and a torn file must
// never reach a machine: the lookup that reads it misses and records
// over it once, with no re-record.
func TestReplayChunkSources(t *testing.T) {
	t.Cleanup(func() {
		SetTraceDir("")
		ResetTraces()
	})
	geos, _ := geoConfigGroups()
	w := workloads.Permutation{}
	p := workloads.Params{Size: 2048, Seed: 11}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s, 0, "")

	want := make([]cpu.Report, len(geos)) // no directory yet: direct
	for i, cfg := range geos {
		want[i] = RunWorkloadOn(cfg, w, p, s)
	}
	// counts reads the engine counters each stage is judged by.
	counts := func() (rec, reps, rerec, fanouts, passes uint64) {
		rec, reps, rerec = TraceStats()
		fanouts, passes, _ = TraceFanoutStats()
		return
	}

	for _, streaming := range []bool{false, true} {
		for _, n := range []int{1, len(geos)} {
			for _, torn := range []bool{false, true} {
				name := fmt.Sprintf("streaming=%v/configs=%d/torn=%v", streaming, n, torn)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					if err := SetTraceDir(dir); err != nil {
						t.Fatal(err)
					}
					cfgs := geos[:n]
					// A group of four books a fan-out pass whether it fans
					// out over the recording (three configs) or the file.
					wantFanouts := uint64(0)
					if n > 1 {
						wantFanouts = 1
					}
					check := func(stage string) {
						t.Helper()
						got := RunWorkloadFanout(cfgs, w, p, s)
						for i := range cfgs {
							if got[i] != want[i] {
								t.Errorf("%s: config %d diverged from direct\nwant: %v\ngot:  %v", stage, i, want[i], got[i])
							}
						}
					}
					ResetTraces()
					check("cold") // records; a group fans out over the fresh recording
					rec, reps, rerec, fanouts, passes := counts()
					if rec != 1 || rerec != 0 || reps != uint64(n-1) || passes != wantFanouts || fanouts != wantFanouts {
						t.Errorf("cold: records=%d rerecords=%d replays=%d decode passes=%d fan-outs=%d, want 1/0/%d/%d/%d",
							rec, rerec, reps, passes, fanouts, n-1, wantFanouts, wantFanouts)
					}
					path := traceFilePath(dir, key)
					buf, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if _, _, _, _, ops, err := trace.Decode(buf); err != nil || len(ops) <= trace.DefaultChunkOps {
						t.Fatalf("cold: recording not stored as a stream of more than %d ops (two chunks): %d ops, err %v",
							trace.DefaultChunkOps, len(ops), err)
					}
					if torn {
						if err := os.WriteFile(path, buf[:len(buf)-9], 0o644); err != nil {
							t.Fatal(err)
						}
					}
					before, err := os.Stat(path)
					if err != nil {
						t.Fatal(err)
					}
					if streaming {
						ResetTraces() // fresh engine
					}
					rec0, reps0, rerec0, fanouts0, passes0 := counts()
					check("warm")
					rec, reps, rerec, fanouts, passes = counts()
					rec, reps, rerec, fanouts, passes = rec-rec0, reps-reps0, rerec-rerec0, fanouts-fanouts0, passes-passes0

					if torn {
						// The lookup meets the tear and misses: one recording
						// writes over the file, nothing is re-recorded.
						if rec != 1 || rerec != 0 {
							t.Errorf("torn file: records=%d rerecords=%d, want 1/0", rec, rerec)
						}
						check("after re-record")
						buf, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if fkey, _, _, _, _, err := trace.Decode(buf); err != nil || fkey != key {
							t.Errorf("after re-record: file does not decode as the key's trace: key %q, err %v", fkey, err)
						}
						return
					}
					if rec != 0 || rerec != 0 || reps != uint64(n) || passes != 1 || fanouts != wantFanouts {
						t.Errorf("warm: records=%d rerecords=%d replays=%d decode passes=%d fan-outs=%d, want 0/0/%d/1/%d",
							rec, rerec, reps, passes, fanouts, n, wantFanouts)
					}
					// Every config was anchored cold, so the warm replay
					// verifies against the file and rewrites nothing.
					if after, err := os.Stat(path); err != nil || !os.SameFile(before, after) {
						t.Errorf("warm: a replay under anchored configs rewrote the file (err=%v)", err)
					}
				})
			}
		}
	}
}
