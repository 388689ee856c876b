package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"ctbia/internal/harness"
	"ctbia/internal/obs"
)

// Observability-streaming tests. In-process workers share the
// process-global registry with the coordinator, so a real armed
// end-to-end merge would double-count by construction; these tests
// drive the protocol synthetically (handcrafted uploads and
// heartbeats) to pin the merge semantics, and CI's fleet job asserts
// true cross-process serial parity.

// obsReset restores the shared registry around a test.
func obsReset(t *testing.T) {
	t.Helper()
	clean := func() {
		obs.Disarm()
		obs.Reset()
		obs.ResetProgress()
		obs.DisableTimeline()
		obs.ResetTimeline()
	}
	clean()
	t.Cleanup(clean)
}

// The merge tests target a registered histogram: registered once for
// the side effect, zeroed by obs.Reset between tests.
var _ = obs.NewHistogram("flt.test_hist")

// At-least-once delivery means the same result can arrive twice; the
// metric delta it carries must merge into the coordinator's registry
// exactly once — counters and histogram decompositions both.
func TestMetricMergeIdempotentOnDuplicate(t *testing.T) {
	obsReset(t)
	exps := testExps(t, "config")
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = time.Hour
	cfg.IdleGrace = time.Hour
	cfg.Linger = 2 * time.Second
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	w := NewWorker(WorkerConfig{URL: co.Addr(), ID: "w-merge", Opts: opts})
	ctx := context.Background()
	if _, err := w.join(ctx); err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if err := w.post("/fleet/lease", leaseRequest{Worker: w.id}, &lr); err != nil {
		t.Fatal(err)
	}
	res := w.execute(lr, opts) // registry disarmed: execution books nothing
	obs.Arm()
	req := resultRequest{
		Worker: w.id, LeaseID: lr.LeaseID, Idx: lr.Idx, ExpID: lr.ExpID,
		Table: res.Table, WallMS: 1, Machines: res.Machines,
		// The per-unit delta: a plain counter plus a histogram
		// decomposition (2 observations: one ≤16, one ≤32).
		Metrics: map[string]uint64{
			"flt.synthetic":       5,
			"flt.test_hist.count": 2,
			"flt.test_hist.sum":   30,
			"flt.test_hist.le_16": 1,
			"flt.test_hist.le_32": 2,
		},
		Points: 9,
	}
	var resp resultResponse
	if err := w.post("/fleet/result", req, &resp); err != nil || !resp.OK || resp.Dup {
		t.Fatalf("first upload: err=%v resp=%+v", err, resp)
	}
	if err := w.post("/fleet/result", req, &resp); err != nil || !resp.OK || !resp.Dup {
		t.Fatalf("duplicate upload: err=%v resp=%+v (want dup)", err, resp)
	}
	wait()
	snap := obs.Snapshot()
	if snap["flt.synthetic"] != 5 {
		t.Errorf("flt.synthetic = %d, want 5 (duplicate double-counted)", snap["flt.synthetic"])
	}
	if snap["flt.test_hist.count"] != 2 || snap["flt.test_hist.sum"] != 30 {
		t.Errorf("histogram merged count=%d sum=%d, want 2/30",
			snap["flt.test_hist.count"], snap["flt.test_hist.sum"])
	}
	if snap["flt.test_hist.le_16"] != 1 || snap["flt.test_hist.le_32"] != 2 {
		t.Errorf("histogram buckets le_16=%d le_32=%d, want 1/2",
			snap["flt.test_hist.le_16"], snap["flt.test_hist.le_32"])
	}
	st := co.Stats()
	if v := st.MetricSnapshots.Load(); v != 1 {
		t.Errorf("metric_snapshots = %d, want 1", v)
	}
	if v := st.RemotePoints.Load(); v != 9 {
		t.Errorf("remote_points = %d, want 9 (dup must not double)", v)
	}
	if v := snap["fleet.lease_age_ms.count"]; v != 1 {
		t.Errorf("lease_age observations = %d, want 1", v)
	}
}

// Heartbeats stream cumulative registry entries; the coordinator
// max-merges them per worker, so re-sends after a dropped beat (and
// stale lower values) are idempotent, and the image surfaces under
// the fleet.worker.<id>.* namespace and the /fleet report.
func TestHeartbeatObsPerWorkerPlane(t *testing.T) {
	obsReset(t)
	exps := testExps(t, "config")
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = time.Hour
	cfg.IdleGrace = 250 * time.Millisecond // the fake worker never leases; drain locally
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	w := NewWorker(WorkerConfig{URL: co.Addr(), ID: "w-hb", Opts: opts})
	if _, err := w.join(context.Background()); err != nil {
		t.Fatal(err)
	}
	beat := func(points uint64, entries map[string]uint64) {
		t.Helper()
		var resp heartbeatResponse
		err := w.post("/fleet/heartbeat", heartbeatRequest{
			Worker: w.id, SentNS: time.Now().UnixNano(), RTTNS: int64(time.Millisecond),
			Points: points, Busy: "config", Obs: entries,
		}, &resp)
		if err != nil || !resp.OK {
			t.Fatalf("heartbeat: err=%v resp=%+v", err, resp)
		}
	}
	beat(7, map[string]uint64{"flt.hb_counter": 7})
	beat(7, map[string]uint64{"flt.hb_counter": 7}) // re-send: idempotent
	beat(5, map[string]uint64{"flt.hb_counter": 4}) // stale: ignored by max-merge
	got := map[string]uint64{}
	co.EmitWorkerMetrics(func(name string, v uint64) { got[name] = v })
	if got["fleet.worker.w-hb.flt.hb_counter"] != 7 {
		t.Errorf("per-worker counter = %d, want 7 (max-merge)", got["fleet.worker.w-hb.flt.hb_counter"])
	}
	if got["fleet.worker.w-hb.points"] != 7 {
		t.Errorf("per-worker points = %d, want 7", got["fleet.worker.w-hb.points"])
	}
	fr := co.FleetReport()
	if len(fr.Workers) != 1 {
		t.Fatalf("fleet report has %d workers, want 1: %+v", len(fr.Workers), fr)
	}
	wr := fr.Workers[0]
	if wr.ID != "w-hb" || !wr.Live {
		t.Errorf("worker row = %+v, want live w-hb", wr)
	}
	if wr.Points != 7 || wr.Busy != "config" || wr.MetricLagMS < 0 {
		t.Errorf("worker row = %+v, want points 7, busy config, non-negative lag", wr)
	}
	if fr.RemotePoints != 7 {
		t.Errorf("report remote points = %d, want 7", fr.RemotePoints)
	}
	// The whole sweep drained locally while the fake worker idled.
	wait()
	if v := co.Stats().LocalUnits.Load(); int(v) != len(exps) {
		t.Errorf("local_units = %d, want %d", v, len(exps))
	}
}

// A join must carry exactly the coordinator's protocol version: older
// and newer workers are refused with a reason naming the version.
func TestJoinVersionWindow(t *testing.T) {
	obsReset(t)
	exps := testExps(t, "config")
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = time.Hour
	cfg.IdleGrace = 250 * time.Millisecond
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	w := NewWorker(WorkerConfig{URL: co.Addr(), ID: "w-v2", Opts: opts})
	join := func(id string, version int) joinResponse {
		t.Helper()
		var resp joinResponse
		deadline := time.Now().Add(5 * time.Second)
		for {
			err := w.post("/fleet/join", joinRequest{Worker: id, Salt: harness.SimVersionSalt, Version: version}, &resp)
			if err == nil || time.Now().After(deadline) {
				if err != nil {
					t.Fatalf("join post: %v", err)
				}
				return resp
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	obs.Arm() // so the hello advertises metrics
	for _, v := range []int{1, ProtocolVersion + 1} {
		resp := join(fmt.Sprintf("w-v%d", v), v)
		if resp.OK || !strings.Contains(resp.Reason, fmt.Sprintf("protocol version %d", v)) {
			t.Errorf("v%d join answered %+v, want a refusal naming the version", v, resp)
		}
	}
	if resp := join("w-v2", ProtocolVersion); !resp.OK || !resp.Metrics {
		t.Errorf("v%d join answered %+v, want OK with metrics on", ProtocolVersion, resp)
	}
	if v := co.Stats().WorkerJoins.Load(); v != 1 {
		t.Errorf("worker_joins = %d, want 1 (refused joins register nothing)", v)
	}
	wait()
}

// GET /fleet serves the live report while the sweep is in flight.
func TestFleetEndpoint(t *testing.T) {
	obsReset(t)
	exps := testExps(t, "config", "table2")
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = 10 * time.Second
	cfg.IdleGrace = 10 * time.Second
	cfg.Linger = 2 * time.Second
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	ch := startWorker(co, "w-fleet", opts, 0)
	// Scrape the endpoint while the run is in flight (it closes with
	// the run); the report must decode whatever stage the sweep is at.
	var fr FleetReport
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + co.Addr() + "/fleet")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&fr)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("decode /fleet: %v", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET /fleet never answered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if fr.Total != len(exps) {
		t.Errorf("mid-run report total = %d, want %d", fr.Total, len(exps))
	}
	if fr.Pending+fr.Leased+fr.Done != fr.Total {
		t.Errorf("mid-run report states don't sum: %+v", fr)
	}
	wait()
	wr := <-ch
	if wr.err != nil {
		t.Fatalf("worker: %v", wr.err)
	}
	// The report method outlives the endpoint.
	fr = co.FleetReport()
	if fr.Total != len(exps) || fr.Done != len(exps) {
		t.Errorf("report %+v, want %d total and done", fr, len(exps))
	}
	if len(fr.Workers) != 1 || fr.Workers[0].UnitsDone != uint64(wr.n) {
		t.Errorf("report workers %+v, want one row with %d units", fr.Workers, wr.n)
	}
	if fr.Stats["results_accepted"] != uint64(len(exps)) {
		t.Errorf("stats %v, want %d accepted", fr.Stats, len(exps))
	}
}
