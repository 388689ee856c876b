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
// geometry × strategy, from memory and from disk, and across every
// fallback (torn files included). The decode-pass counter is the
// efficiency contract: one pass per distinct trace key, not one per
// replay served.

// geoStrategies mirrors runGeoSweep's strategy set: the pure strategies
// fan out over one shared key; BIA keys per config and serves the group
// through the per-config path.
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
// geosweep grid: fan-out groups must return exactly the reports direct
// (trace-off) execution produces, and a warm sweep must perform one
// decode pass per distinct trace key — shared keys fan out (one pass
// serves four geometries), BIA keys replay per config.
func TestFanoutEquivalenceGeoSweep(t *testing.T) {
	ResetTraces()
	t.Cleanup(func() {
		SetTraceMode(TraceOn)
		ResetTraces()
	})
	pureCfgs, biaCfgs := geoConfigGroups()
	wls := geoSweepWorkloads(true)

	SetTraceMode(TraceOff)
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

	SetTraceMode(TraceOn)
	ResetTraces()
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
// geosweep experiment rendered with tracing off and with warm fan-out
// replay must be byte-identical, and the warm sweep must actually fan
// out.
func TestFanoutGeoSweepTableByteIdentical(t *testing.T) {
	ResetTraces()
	t.Cleanup(func() {
		SetTraceMode(TraceOn)
		ResetTraces()
	})
	o := Options{Quick: true, Parallel: 1}
	SetTraceMode(TraceOff)
	off := runGeoSweep(o).Render()

	SetTraceMode(TraceOn)
	ResetTraces()
	runGeoSweep(o) // cold
	fanoutsBefore, _, _ := TraceFanoutStats()
	fanned := runGeoSweep(o).Render()
	fanouts, _, _ := TraceFanoutStats()

	if fanned != off {
		t.Errorf("fan-out warm table diverged from trace-off\noff:\n%s\nfan-out:\n%s", off, fanned)
	}
	if fanouts == fanoutsBefore {
		t.Error("fan-out sweep booked no fan-out passes — did the groups fall back?")
	}
}

// TestFanoutParallelSweep drives the grouped geosweep with concurrent
// workers (the -race CI job runs this at oversubscribed GOMAXPROCS):
// fan-out groups racing on pools and the trace engine must produce the
// same rendered table as the serial sweep, cold and warm.
func TestFanoutParallelSweep(t *testing.T) {
	ResetTraces()
	t.Cleanup(func() {
		SetTraceMode(TraceOn)
		ResetTraces()
	})
	SetTraceMode(TraceOn)
	serial := Options{Quick: true, Parallel: 1}
	parallel := Options{Quick: true, Parallel: 4}
	ResetTraces()
	want := runGeoSweep(serial).Render() // cold, serial
	ResetTraces()
	if got := runGeoSweep(parallel).Render(); got != want {
		t.Errorf("cold parallel fan-out sweep diverged from serial\nserial:\n%s\nparallel:\n%s", want, got)
	}
	if got := runGeoSweep(parallel).Render(); got != want {
		t.Errorf("warm parallel fan-out sweep diverged from serial\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

// TestReplayChunkSources drives the one replay path over both places a
// stream comes from, charged to one config or fanned out over four
// geometries, from a clean or a torn file. streaming=false replays this
// process's recording, held in memory; streaming=true streams the
// key's file back in on a fresh engine — read whole, decoded, replayed
// and kept nowhere. The stream spans two chunks. Reports must equal
// direct execution at every stage; a warm group must be one decode
// pass (a fan-out pass only for a group of two or more); and a torn
// file must never reach a machine: a memory hit leaves it unread and
// unwritten, and a lookup that reads it misses and records over it
// once, with no re-record.
func TestReplayChunkSources(t *testing.T) {
	t.Cleanup(func() {
		SetTraceDir("")
		SetTraceMode(TraceOn)
		ResetTraces()
	})
	geos, _ := geoConfigGroups()
	w := workloads.Permutation{}
	p := workloads.Params{Size: 2048, Seed: 11}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s, 0, "")

	SetTraceMode(TraceOff)
	want := make([]cpu.Report, len(geos))
	for i, cfg := range geos {
		want[i] = RunWorkloadOn(cfg, w, p, s)
	}
	SetTraceMode(TraceOn)
	stored := func() *traceEntry {
		traceEngine.mu.RLock()
		defer traceEngine.mu.RUnlock()
		return traceEngine.entries[key]
	}
	// counts reads the engine counters the warm stage is judged by.
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
					if e := stored(); e == nil || len(e.ops) <= trace.DefaultChunkOps {
						t.Fatalf("cold: recording not held in memory as a stream of more than %d ops (two chunks): %v",
							trace.DefaultChunkOps, e)
					}
					path := traceFilePath(dir, key)
					var tornBuf []byte
					if torn {
						buf, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						tornBuf = buf[:len(buf)-9]
						if err := os.WriteFile(path, tornBuf, 0o644); err != nil {
							t.Fatal(err)
						}
					}
					if streaming {
						ResetTraces() // fresh engine: the stream comes back from the file
					}
					rec0, reps0, rerec0, fanouts0, passes0 := counts()
					check("warm")
					rec, reps, rerec, fanouts, passes := counts()
					rec, reps, rerec, fanouts, passes = rec-rec0, reps-reps0, rerec-rerec0, fanouts-fanouts0, passes-passes0

					if torn && streaming {
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
					wantFanouts := uint64(0)
					if n > 1 {
						wantFanouts = 1
					}
					if rec != 0 || rerec != 0 || reps != uint64(n) || passes != 1 || fanouts != wantFanouts {
						t.Errorf("warm: records=%d rerecords=%d replays=%d decode passes=%d fan-outs=%d, want 0/0/%d/1/%d",
							rec, rerec, reps, passes, fanouts, n, wantFanouts)
					}
					if held := stored() != nil; held == streaming {
						t.Errorf("warm: entry held in memory=%v, want %v", held, !streaming)
					}
					if torn {
						// Served from memory: the torn file was neither
						// read into a miss nor written over.
						buf, err := os.ReadFile(path)
						if err != nil {
							t.Fatal(err)
						}
						if string(buf) != string(tornBuf) {
							t.Error("warm: a memory hit rewrote the torn file")
						}
					}
				})
			}
		}
	}
}
