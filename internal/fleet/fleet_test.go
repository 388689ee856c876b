package fleet

import (
	"context"
	"strings"
	"testing"
	"time"

	"ctbia/internal/faultinject"
	"ctbia/internal/harness"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
)

// Tests drive real coordinators and in-process workers over loopback
// HTTP. They share the process-global fault injector, so none of them
// run in parallel.

// testCfg is the shrunken fleet geometry the chaos tests run under:
// deadlines small enough that expiry, loss detection and fallback all
// happen within a test's patience, no linger.
func testCfg() Config {
	return Config{
		Addr:      "127.0.0.1:0",
		LeaseTTL:  500 * time.Millisecond,
		Heartbeat: 50 * time.Millisecond,
		JoinWait:  200 * time.Millisecond,
		IdleGrace: 200 * time.Millisecond,
		// Keep the endpoint up briefly after done so a worker's final
		// lease poll hears Done instead of connection-refused.
		Linger: time.Second,
	}
}

// testExps resolves experiment ids (small, fast ones only).
func testExps(t *testing.T, ids ...string) []harness.Experiment {
	t.Helper()
	exps := make([]harness.Experiment, len(ids))
	for i, id := range ids {
		e, err := harness.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		exps[i] = e
	}
	return exps
}

// renderAll concatenates every table's rendering — the byte-identical
// comparison the whole design hangs on.
func renderAll(results []harness.Result) string {
	var b strings.Builder
	for _, r := range results {
		b.WriteString(r.Table.Render())
		b.WriteByte('\n')
	}
	return b.String()
}

// serialBaseline runs the same experiments through local RunAll.
func serialBaseline(t *testing.T, exps []harness.Experiment) string {
	t.Helper()
	return renderAll(harness.RunAll(exps, harness.Options{Quick: true, Parallel: 1}))
}

// startRun launches co.Run and returns a waiter for its results.
func startRun(t *testing.T, co *Coordinator) func() []harness.Result {
	t.Helper()
	var results []harness.Result
	var err error
	done := make(chan struct{})
	go func() {
		results, err = co.Run(context.Background())
		close(done)
	}()
	return func() []harness.Result {
		t.Helper()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("coordinator did not finish")
		}
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		return results
	}
}

// workerResult carries one in-process worker's outcome.
type workerResult struct {
	id  string
	n   int
	err error
}

// startWorker runs a worker against co in a goroutine.
func startWorker(co *Coordinator, id string, opts harness.Options, stall time.Duration) chan workerResult {
	ch := make(chan workerResult, 1)
	w := NewWorker(WorkerConfig{URL: co.Addr(), ID: id, Opts: opts, Stall: stall})
	go func() {
		n, err := w.Run(context.Background())
		ch <- workerResult{id: id, n: n, err: err}
	}()
	return ch
}

// arm parses and arms a fault spec, disarming at test end.
func arm(t *testing.T, spec string) {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(inj)
	t.Cleanup(faultinject.Disarm)
}

// Two workers drain the sweep; the merged tables must be
// byte-identical to a serial local run and nothing may fall back to
// in-process execution.
func TestDistributedMatchesSerial(t *testing.T) {
	exps := testExps(t, "fig2", "config", "table2")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = 10 * time.Second // this test is about workers, not fallback
	cfg.IdleGrace = 10 * time.Second
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	w1 := startWorker(co, "w1", opts, 0)
	w2 := startWorker(co, "w2", opts, 0)
	results := wait()
	total := 0
	for _, ch := range []chan workerResult{w1, w2} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("worker %s: %v", r.id, r.err)
		}
		total += r.n
	}
	if got := renderAll(results); got != want {
		t.Errorf("distributed tables differ from serial baseline:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if total < len(exps) {
		t.Errorf("workers completed %d units, want >= %d", total, len(exps))
	}
	st := co.Stats().Map()
	if st["worker_joins"] != 2 {
		t.Errorf("worker_joins = %d, want 2", st["worker_joins"])
	}
	if st["local_units"] != 0 {
		t.Errorf("local_units = %d, want 0 (nothing should have fallen back)", st["local_units"])
	}
	if int(st["results_accepted"]) != len(exps) {
		t.Errorf("results_accepted = %d, want %d", st["results_accepted"], len(exps))
	}
}

// No worker ever joins: the coordinator must degrade to in-process
// execution after JoinWait and still produce the serial tables.
func TestFallbackNoWorkers(t *testing.T) {
	exps := testExps(t, "fig2", "config")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = 50 * time.Millisecond
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	results := startRun(t, co)()
	if got := renderAll(results); got != want {
		t.Errorf("fallback tables differ from serial baseline:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := co.Stats().Map()
	if int(st["local_units"]) != len(exps) {
		t.Errorf("local_units = %d, want %d", st["local_units"], len(exps))
	}
	if st["worker_joins"] != 0 {
		t.Errorf("worker_joins = %d, want 0", st["worker_joins"])
	}
}

// One of two workers is killed mid-sweep (the in-process stand-in for
// SIGKILL: it dies holding a lease, heartbeats stop). The coordinator
// must detect the loss, re-queue the lease, and the surviving worker
// finishes the sweep with tables byte-identical to the serial run.
func TestWorkerKilledMidSweep(t *testing.T) {
	arm(t, "seed=1;fleet.worker.kill:w-dead")
	exps := testExps(t, "fig2", "config", "table2")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = 10 * time.Second
	cfg.IdleGrace = 10 * time.Second // the survivor must do the work, not the fallback
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	dead := startWorker(co, "w-dead", opts, 0)
	// Start the survivor only once w-dead holds its first lease: the
	// kill fires on that lease, and a survivor started alongside could
	// lease every unit first, so that it never fires.
	for deadline := time.Now().Add(10 * time.Second); co.Stats().Map()["leases_granted"] == 0; {
		if time.Now().After(deadline) {
			t.Fatal("w-dead was never granted a lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
	live := startWorker(co, "w-live", opts, 0)
	results := wait()
	if r := <-dead; r.err != ErrKilled {
		t.Errorf("killed worker returned %v, want ErrKilled", r.err)
	}
	if r := <-live; r.err != nil {
		t.Errorf("surviving worker: %v", r.err)
	}
	if got := renderAll(results); got != want {
		t.Errorf("post-kill tables differ from serial baseline:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := co.Stats().Map()
	if st["worker_losses"] != 1 {
		t.Errorf("worker_losses = %d, want 1", st["worker_losses"])
	}
	if st["leases_requeued"] == 0 {
		t.Error("the killed worker's lease was never re-queued")
	}
	if st["local_units"] != 0 {
		t.Errorf("local_units = %d, want 0 (the surviving worker should finish the sweep)", st["local_units"])
	}
}

// A worker submits the same unit twice (the at-least-once path). The
// second submission must be acknowledged as a duplicate, touch no
// sink, and leave the tables untouched.
func TestDuplicateSubmissionDedups(t *testing.T) {
	exps := testExps(t, "config")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = time.Hour
	cfg.IdleGrace = time.Hour
	cfg.Linger = 2 * time.Second // keep the endpoint up for the duplicate
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	w := NewWorker(WorkerConfig{URL: co.Addr(), ID: "w-dup", Opts: opts})
	ctx := context.Background()
	if _, err := w.join(ctx); err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if err := w.post("/fleet/lease", leaseRequest{Worker: w.id}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.ExpID != "config" {
		t.Fatalf("leased %+v, want the config unit", lr)
	}
	res := w.execute(lr, opts)
	if err := w.submit(ctx, lr, res); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if err := w.submit(ctx, lr, res); err != nil {
		t.Fatalf("duplicate submit: %v", err)
	}
	results := wait()
	if got := renderAll(results); got != want {
		t.Errorf("tables differ after duplicate submission:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if hits := co.Stats().DedupHits.Load(); hits != 1 {
		t.Errorf("dedup_hits = %d, want 1", hits)
	}
}

// A torn result upload (mangled mid-body) must be rejected by the
// coordinator and transparently resent whole by the worker's retry
// loop — the sweep completes with correct tables.
func TestTornUploadResent(t *testing.T) {
	arm(t, "seed=1;fleet.result.torn@1")
	exps := testExps(t, "fig2", "config")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = 10 * time.Second
	cfg.IdleGrace = 10 * time.Second
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	ch := startWorker(co, "w-torn", opts, 0)
	results := wait()
	if r := <-ch; r.err != nil || r.n != len(exps) {
		t.Fatalf("worker: %d units, err %v; want %d units", r.n, r.err, len(exps))
	}
	if got := renderAll(results); got != want {
		t.Errorf("tables differ after torn upload:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := co.Stats().Map()
	if st["results_malformed"] == 0 {
		t.Error("the torn upload was never seen (results_malformed = 0)")
	}
	if int(st["results_accepted"]) != len(exps) {
		t.Errorf("results_accepted = %d, want %d", st["results_accepted"], len(exps))
	}
}

// A worker wedges past its lease TTL (still heartbeating — alive but
// stuck). The lease must expire and re-queue, the coordinator's idle
// fallback recomputes the unit, and the worker's eventual late upload
// dedups instead of corrupting anything.
func TestStalledWorkerLeaseExpires(t *testing.T) {
	arm(t, "seed=1;fleet.worker.stall@1")
	exps := testExps(t, "config", "table2")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.LeaseTTL = 250 * time.Millisecond
	cfg.JoinWait = 10 * time.Second
	cfg.Linger = 2 * time.Second // survive until the stalled worker's late upload
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	ch := startWorker(co, "w-stall", opts, time.Second)
	results := wait()
	if r := <-ch; r.err != nil {
		t.Fatalf("stalled worker: %v", r.err)
	}
	if got := renderAll(results); got != want {
		t.Errorf("tables differ after stall:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := co.Stats().Map()
	if st["leases_expired"] == 0 {
		t.Error("the stalled lease never expired")
	}
	if st["dedup_hits"] == 0 {
		t.Error("the late upload was not deduplicated")
	}
}

// A worker built from a different simulator version must be refused
// at join (its tables would differ), and the coordinator finishes the
// sweep without it.
func TestSaltMismatchRefused(t *testing.T) {
	exps := testExps(t, "config")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = 300 * time.Millisecond
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	w := NewWorker(WorkerConfig{URL: co.Addr(), ID: "w-stale", Opts: opts})
	var resp joinResponse
	// The endpoint opens just after Run starts; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = w.post("/fleet/join", joinRequest{Worker: "w-stale", Salt: "ctbia-sim-pr0-v0", Version: ProtocolVersion}, &resp)
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("join post: %v", err)
	}
	if resp.OK || !strings.Contains(resp.Reason, "mismatch") {
		t.Fatalf("stale-salt join answered %+v, want a mismatch refusal", resp)
	}
	results := wait()
	if got := renderAll(results); got != want {
		t.Errorf("tables differ:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := co.Stats().Map()
	if st["worker_joins"] != 0 {
		t.Errorf("worker_joins = %d, want 0 (the refused worker must not count)", st["worker_joins"])
	}
	if int(st["local_units"]) != len(exps) {
		t.Errorf("local_units = %d, want %d", st["local_units"], len(exps))
	}
}

// Distributed runs share the local runs' result cache: a second
// coordinator over the same store serves everything from cache before
// the endpoint even opens — the contract a re-run with the same
// -cache rw -cachedir is built on.
func TestCacheAndManifestResume(t *testing.T) {
	store, err := resultcache.Open(t.TempDir(), resultcache.ReadWrite, harness.SimVersionSalt)
	if err != nil {
		t.Fatal(err)
	}
	exps := testExps(t, "config", "table2")
	want := serialBaseline(t, exps)
	opts := harness.Options{Quick: true, Parallel: 1, Cache: store}
	cfg := testCfg()
	cfg.JoinWait = 50 * time.Millisecond

	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	results := startRun(t, co)()
	if got := renderAll(results); got != want {
		t.Fatalf("first run tables differ:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	co2, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	results2 := startRun(t, co2)()
	if got := renderAll(results2); got != want {
		t.Errorf("cached run tables differ:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	st := co2.Stats().Map()
	if int(st["cached_units"]) != len(exps) {
		t.Errorf("cached_units = %d, want %d", st["cached_units"], len(exps))
	}
	if st["leases_granted"] != 0 || st["local_units"] != 0 {
		t.Errorf("cache-served run still executed work: %v", st)
	}
	for _, r := range results2 {
		if !r.Cached {
			t.Errorf("%s not marked cached on the re-run", r.Experiment.ID)
		}
	}
}

// The fleet counters surface under dotted fleet.* names for the obs
// registry.
func TestStatsEmitMetrics(t *testing.T) {
	var s Stats
	s.LeasesGranted.Add(3)
	s.DedupHits.Add(1)
	got := map[string]uint64{}
	s.EmitMetrics(func(name string, v uint64) { got[name] = v })
	if got["fleet.leases_granted"] != 3 || got["fleet.dedup_hits"] != 1 {
		t.Fatalf("EmitMetrics = %v", got)
	}
	if _, ok := got["fleet.heartbeats_missed"]; !ok {
		t.Fatal("EmitMetrics missing fleet.heartbeats_missed")
	}
}

// resultRow is the part of one experiment's Result — what ctbench
// writes to -json — that must not depend on where the experiment ran.
type resultRow struct {
	Failed, Cached bool
	Error          string
	Wall, Metrics  bool
}

// rowsOf keys results' rows by experiment id.
func rowsOf(results []harness.Result) map[string]resultRow {
	rows := make(map[string]resultRow, len(results))
	for _, r := range results {
		row := resultRow{Failed: r.Failed(), Cached: r.Cached, Wall: r.Wall > 0, Metrics: len(r.Metrics) > 0}
		if fs := harness.Failures([]harness.Result{r}); len(fs) > 0 {
			row.Error = firstLine(fs[0].Error())
		}
		rows[r.Experiment.ID] = row
	}
	return rows
}

// One injected worker panic yields one error line, whichever path ran
// the experiment: RunAll, the coordinator's in-process drain, or a
// remote worker. A second pass over each cache serves its hits alike.
func TestJournalSameLocalDrainAndRemote(t *testing.T) {
	obsReset(t)
	obs.Arm() // so results carry per-experiment metrics
	exps := testExps(t, "fig2", "config")
	ways := []struct {
		name string
		run  func(o harness.Options) []harness.Result
	}{
		{"local", func(o harness.Options) []harness.Result { return harness.RunAll(exps, o) }},
		{"drain", func(o harness.Options) []harness.Result {
			cfg := testCfg()
			cfg.JoinWait = 50 * time.Millisecond
			co, err := NewCoordinator(cfg, exps, o)
			if err != nil {
				t.Fatal(err)
			}
			return startRun(t, co)()
		}},
		{"remote", func(o harness.Options) []harness.Result {
			cfg := testCfg()
			cfg.JoinWait = 10 * time.Second
			cfg.IdleGrace = 10 * time.Second
			co, err := NewCoordinator(cfg, exps, o)
			if err != nil {
				t.Fatal(err)
			}
			wait := startRun(t, co)
			ch := startWorker(co, "w-journal", harness.Options{Parallel: 1}, 0)
			results := wait()
			if r := <-ch; r.err != nil {
				t.Fatalf("worker: %v", r.err)
			}
			if v := co.Stats().LocalUnits.Load(); v != 0 {
				t.Fatalf("remote run drained %d units locally", v)
			}
			return results
		}},
	}
	rows := make([][2]map[string]resultRow, len(ways))
	for i, way := range ways {
		store, err := resultcache.Open(t.TempDir(), resultcache.ReadWrite, harness.SimVersionSalt)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if pass == 0 {
				arm(t, "seed=1;worker.panic:fig2")
			} else {
				faultinject.Disarm()
			}
			results := way.run(harness.Options{Quick: true, Parallel: 1, Cache: store})
			if got := results[0].Failed(); got != (pass == 0) {
				t.Fatalf("%s pass %d: fig2 failed = %v", way.name, pass, got)
			}
			if results[1].Cached != (pass == 1) {
				t.Fatalf("%s pass %d: config cached = %v", way.name, pass, results[1].Cached)
			}
			rows[i][pass] = rowsOf(results)
		}
	}
	want := `point failed [fig2]: faultinject: injected permanent fault at worker.panic (key "fig2")`
	if got := rows[0][0]["fig2"].Error; got != want {
		t.Errorf("local error line = %q, want %q", got, want)
	}
	for pass := 0; pass < 2; pass++ {
		for i := 1; i < len(ways); i++ {
			for _, e := range exps {
				if got, ref := rows[i][pass][e.ID], rows[0][pass][e.ID]; got != ref {
					t.Errorf("pass %d %s: %s returned %+v, local %+v", pass, e.ID, ways[i].name, got, ref)
				}
			}
		}
	}
}

// A failed upload's table is validated like a clean one's: another
// experiment's table is never served under this unit. The result
// becomes the FAILED placeholder carrying the worker's error line.
func TestFailedUploadTableValidated(t *testing.T) {
	exps := testExps(t, "config")
	opts := harness.Options{Quick: true, Parallel: 1}
	cfg := testCfg()
	cfg.JoinWait = time.Hour
	cfg.IdleGrace = time.Hour
	co, err := NewCoordinator(cfg, exps, opts)
	if err != nil {
		t.Fatal(err)
	}
	wait := startRun(t, co)
	w := NewWorker(WorkerConfig{URL: co.Addr(), ID: "w-bad", Opts: opts})
	if _, err := w.join(context.Background()); err != nil {
		t.Fatal(err)
	}
	var lr leaseResponse
	if err := w.post("/fleet/lease", leaseRequest{Worker: w.id}, &lr); err != nil {
		t.Fatal(err)
	}
	line := "point failed [config]: boom"
	wrong := &harness.Table{ID: "fig9", Title: "not config", Headers: []string{"a"}, Rows: [][]string{{"1"}}}
	var resp resultResponse
	if err := w.post("/fleet/result", resultRequest{
		Worker: w.id, LeaseID: lr.LeaseID, Idx: lr.Idx, ExpID: lr.ExpID,
		Table: wrong, Failed: true, Errors: []string{line}, WallMS: 1,
	}, &resp); err != nil || !resp.OK {
		t.Fatalf("upload: err=%v resp=%+v", err, resp)
	}
	res := wait()[0]
	if res.Table.ID != "config" || !strings.Contains(res.Table.Render(), "FAILED") {
		t.Errorf("unit config rendered another table:\n%s", res.Table.Render())
	}
	if res.Err == nil || res.Err.Error() != line {
		t.Errorf("result error = %v, want %q", res.Err, line)
	}
}
