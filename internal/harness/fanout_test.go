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
// geometry × strategy, in the in-memory and streaming regimes, and
// across every fallback (torn chunks included). The decode-pass counter
// is the efficiency contract: one pass per distinct trace key, not one
// per replay served.

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

// TestFanoutStreamingTornChunk forces the streaming regime, tears a
// chunk mid-file and checks the fan-out group degrades to the
// per-config path (which re-records) without a single wrong report.
func TestFanoutStreamingTornChunk(t *testing.T) {
	dir := t.TempDir()
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	old := maxInlineTraceBytes
	t.Cleanup(func() {
		maxInlineTraceBytes = old
		SetTraceDir("")
		SetTraceMode(TraceOn)
		ResetTraces()
	})
	ResetTraces()

	pureCfgs, _ := geoConfigGroups()
	w := workloads.BinarySearch{}
	p := workloads.Params{Size: 800, Seed: 11, Ops: 8}
	s := ct.Linear{}
	key := workloadTraceKey(w, p, s, 0, "")
	path := traceFilePath(dir, key)

	SetTraceMode(TraceOff)
	want := make([]cpu.Report, len(pureCfgs))
	for i, cfg := range pureCfgs {
		want[i] = RunWorkloadOn(cfg, w, p, s)
	}

	SetTraceMode(TraceOn)
	maxInlineTraceBytes = 1
	ResetTraces()
	check := func(stage string) {
		got := RunWorkloadFanout(pureCfgs, w, p, s)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: config %d diverged\nwant: %v\ngot:  %v", stage, i, want[i], got[i])
			}
		}
	}
	check("cold streaming fan-out")
	check("warm streaming fan-out")

	// Tear the file mid-stream: the chunk CRC fails during the fan-out
	// pass, the entry is dropped, and the per-config fallback re-records.
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)-5] ^= 0x20
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ResetTraces() // drop in-memory entries so the group re-reads the torn file
	check("fan-out over torn file")
	if _, _, rerec := TraceStats(); rerec == 0 {
		t.Error("torn stream served without a re-record")
	}
	check("after re-record")
}

// TestReplayChunkSources drives the one replay path over every shape
// it serves: an in-memory or a streamed (file-backed) entry, charged to
// one config or fanned out over four geometries, from a clean or a
// torn file. The stream spans two chunks, so a torn final chunk lands
// after every machine of the group consumed the first. Reports must
// equal direct execution at every stage, a warm group must be one
// decode pass (a fan-out pass only for a group of two or more), and a
// torn file must re-record without a single wrong report.
func TestReplayChunkSources(t *testing.T) {
	old := maxInlineTraceBytes
	t.Cleanup(func() {
		maxInlineTraceBytes = old
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

	for _, streaming := range []bool{false, true} {
		for _, n := range []int{1, len(geos)} {
			for _, torn := range []bool{false, true} {
				name := fmt.Sprintf("streaming=%v/configs=%d/torn=%v", streaming, n, torn)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					if err := SetTraceDir(dir); err != nil {
						t.Fatal(err)
					}
					maxInlineTraceBytes = old
					if streaming {
						maxInlineTraceBytes = 1
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
					check("cold")
					ResetTraces() // fresh engine: the entry comes back from disk
					if !torn {
						check("warm")
						rec, reps, _ := TraceStats()
						fanouts, passes, _ := TraceFanoutStats()
						wantFanouts := uint64(0)
						if n > 1 {
							wantFanouts = 1
						}
						if rec != 0 || reps != uint64(n) || passes != 1 || fanouts != wantFanouts {
							t.Errorf("warm: records=%d replays=%d decode passes=%d fan-outs=%d, want 0/%d/1/%d",
								rec, reps, passes, fanouts, n, wantFanouts)
						}
						traceEngine.mu.RLock()
						e := traceEngine.entries[key]
						traceEngine.mu.RUnlock()
						if e == nil {
							t.Fatal("warm: no entry stored for the key")
						}
						if (e.ops == nil) != streaming || e.nops <= trace.DefaultChunkOps {
							t.Errorf("warm entry: streaming=%v with %d ops, want streaming=%v with more than %d ops (two chunks)",
								e.ops == nil, e.nops, streaming, trace.DefaultChunkOps)
						}
						return
					}
					path := traceFilePath(dir, key)
					buf, err := os.ReadFile(path)
					if err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, buf[:len(buf)-9], 0o644); err != nil {
						t.Fatal(err)
					}
					check("torn")
					// A streamed entry meets the tear mid-replay (a stale
					// entry: dropped, one re-record); a whole-file decode
					// meets it at lookup (a miss).
					wantRerec := uint64(0)
					if streaming {
						wantRerec = 1
					}
					if rec, _, rerec := TraceStats(); rec != 1 || rerec != wantRerec {
						t.Errorf("torn file: records=%d rerecords=%d, want 1/%d", rec, rerec, wantRerec)
					}
					check("after re-record")
				})
			}
		}
	}
}
