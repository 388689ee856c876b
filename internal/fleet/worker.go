package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ctbia/internal/faultinject"
	"ctbia/internal/harness"
	"ctbia/internal/obs"
	"ctbia/internal/retry"
)

// ErrKilled is what Worker.Run returns when an armed
// fleet.worker.kill rule fires: the in-process stand-in for SIGKILL —
// the worker dies mid-lease without submitting, heartbeats stop, and
// the coordinator's liveness scanner has to clean up after it.
var ErrKilled = errors.New("fleet: worker killed by injected fault")

// joinPolicy paces (re)connect attempts to a coordinator that is not
// up yet or briefly unreachable: capped exponential backoff with
// jitter, roughly twenty seconds of patience in total.
var joinPolicy = retry.Policy{Base: 100 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.2, Attempts: 12}

// rpcPolicy paces lease polls and result uploads: enough retries to
// absorb a torn upload or a brief coordinator stall, but a dead
// coordinator stops a worker within a few seconds.
var rpcPolicy = retry.Policy{Base: 50 * time.Millisecond, Cap: time.Second, Jitter: 0.2, Attempts: 8}

// WorkerConfig configures one fleet worker.
type WorkerConfig struct {
	// URL is the coordinator's base address; a bare host:port gets
	// http:// prefixed.
	URL string
	// ID names the worker (default hostname-pid). IDs must be unique
	// across the fleet — the coordinator keys liveness on them.
	ID string
	// Opts are the execution options for leased units. Quick is
	// overridden by the coordinator's hello; Cache and Manifest are
	// forced nil (the coordinator owns the sinks).
	Opts harness.Options
	// Stall is how long a fleet.worker.stall fault wedges the worker
	// before submitting (default 1.5x the coordinator's lease TTL —
	// just past the execution deadline).
	Stall time.Duration
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)
}

// Worker executes leased units for one coordinator until the sweep is
// done.
type Worker struct {
	cfg        WorkerConfig
	id         string
	base       string
	client     *http.Client
	needRejoin atomic.Bool

	// Set at join; atomics because the heartbeat goroutine reads them
	// while the main loop may rejoin.
	sendObs   atomic.Bool  // coordinator asked for metric streaming
	sendSpans atomic.Bool  // coordinator asked for timeline spans
	busy      atomic.Value // string: experiment currently executing
	lastRTT   atomic.Int64 // ns round-trip of the previous heartbeat post

	// lastSent tracks the cumulative registry values the coordinator has
	// acknowledged, so each heartbeat ships only what changed. Committed
	// only after a successful post: a dropped beat's entries simply ride
	// the next one (cumulative values make the re-send idempotent).
	obsMu    sync.Mutex
	lastSent map[string]uint64
}

// NewWorker builds a worker; Run drives it.
func NewWorker(cfg WorkerConfig) *Worker {
	id := cfg.ID
	if id == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	base := strings.TrimRight(cfg.URL, "/")
	if base != "" && !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Worker{
		cfg:    cfg,
		id:     id,
		base:   base,
		client: &http.Client{Timeout: 15 * time.Second},
	}
}

// ID returns the worker's fleet identity.
func (w *Worker) ID() string { return w.id }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Run joins the coordinator and executes leased units until the sweep
// finishes, the context ends, the coordinator becomes unreachable, or
// an injected kill fires. It returns how many units this worker
// completed alongside any terminal error (a clean Done is nil).
func (w *Worker) Run(ctx context.Context) (int, error) {
	hello, err := w.join(ctx)
	if err != nil {
		return 0, err
	}
	opts := w.cfg.Opts
	opts.Quick = hello.Quick // the coordinator's scale wins: mixed sizes would corrupt the sweep
	opts.Cache = nil         // the coordinator owns the result sinks;
	opts.Manifest = nil      // a worker only ever uploads
	stall := w.cfg.Stall
	if stall <= 0 {
		stall = time.Duration(hello.LeaseTTLMS) * time.Millisecond * 3 / 2
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.heartbeatLoop(stop, time.Duration(hello.HeartbeatMS)*time.Millisecond)
	}()
	defer func() { close(stop); wg.Wait() }()
	done := 0
	for {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		if w.needRejoin.Swap(false) {
			// The coordinator lost track of us (presumed dead after
			// missed heartbeats); rejoin and carry on — our config
			// cannot have changed mid-run.
			if _, err := w.join(ctx); err != nil {
				return done, err
			}
		}
		var lr leaseResponse
		err := retry.Do(ctx, rpcPolicy, func() error {
			return w.post("/fleet/lease", leaseRequest{Worker: w.id}, &lr)
		})
		if err != nil {
			return done, fmt.Errorf("fleet: coordinator unreachable: %w", err)
		}
		switch {
		case lr.Done:
			return done, nil
		case lr.Unknown:
			w.needRejoin.Store(true)
			continue
		case lr.Wait:
			d := time.Duration(lr.RetryMS) * time.Millisecond
			if d <= 0 {
				d = 200 * time.Millisecond
			}
			select {
			case <-ctx.Done():
				return done, ctx.Err()
			case <-time.After(d):
			}
			continue
		}
		// Chaos hook: a matching kill rule is this worker's SIGKILL —
		// it dies here, mid-lease, without ever submitting.
		if faultinject.Should("fleet.worker.kill", w.id+"/"+lr.ExpID) {
			return done, ErrKilled
		}
		w.busy.Store(lr.ExpID)
		res := w.execute(lr, opts)
		w.busy.Store("")
		// Chaos hook: wedge past the lease deadline; the coordinator
		// re-queues the unit and this late upload becomes a dedup hit.
		if faultinject.Should("fleet.worker.stall", w.id+"/"+lr.ExpID) {
			select {
			case <-ctx.Done():
				return done, ctx.Err()
			case <-time.After(stall):
			}
		}
		if err := w.submit(ctx, lr, res); err != nil {
			return done, err
		}
		done++
		w.logf("fleet worker %s: %s done in %v", w.id, lr.ExpID, res.Wall.Round(time.Millisecond))
	}
}

// execute runs one leased unit through the harness's panic-isolated
// single-experiment path.
func (w *Worker) execute(lr leaseResponse, opts harness.Options) harness.Result {
	e, err := harness.ByID(lr.ExpID)
	if err != nil {
		// A unit this binary doesn't know: version skew the salt check
		// should have caught. Report it failed rather than crash.
		pe := &harness.PointError{Experiment: lr.ExpID, Err: err, Attempts: 1}
		t := &harness.Table{ID: lr.ExpID, Headers: []string{"status", "error"}}
		t.AddRow("FAILED", firstLine(err.Error()))
		return harness.Result{Table: t, Err: pe}
	}
	return harness.RunOne(e, opts)
}

// submit uploads one executed unit, retrying transport failures (a
// torn body is resent whole; the coordinator dedups if a retry races
// a competing execution). A rejection with a decoded body is a
// decision, not an outage — the worker gives up on the sweep.
func (w *Worker) submit(ctx context.Context, lr leaseResponse, res harness.Result) error {
	req := resultRequest{
		Worker:   w.id,
		LeaseID:  lr.LeaseID,
		Idx:      lr.Idx,
		ExpID:    lr.ExpID,
		Table:    res.Table,
		WallMS:   float64(res.Wall.Microseconds()) / 1000,
		Machines: res.Machines,
		Metrics:  res.Metrics,
		Points:   res.Points,
	}
	if w.sendObs.Load() {
		// Full cumulative snapshot: the per-worker namespace's
		// authoritative refresh, and the crash-loss bound — anything a
		// dropped heartbeat missed is covered by the next upload.
		req.Obs = obs.Snapshot()
	}
	if w.sendSpans.Load() {
		// Drained once, marshaled once; upload retries resend the same
		// body, and the coordinator's dedup makes re-delivery harmless.
		req.Spans = obs.TakeWireEvents()
	}
	if res.Failed() {
		req.Failed = true
		for _, pe := range harness.Failures([]harness.Result{res}) {
			req.Errors = append(req.Errors, firstLine(pe.Error()))
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var resp resultResponse
	err = retry.Do(ctx, rpcPolicy, func() error {
		send := body
		// Chaos hook: tear the upload mid-body. The coordinator 400s
		// the mangled JSON and the next attempt resends in full —
		// at-least-once delivery absorbs the tear.
		if faultinject.Should("fleet.result.torn", w.id+"/"+lr.ExpID) {
			send = body[:len(body)/2]
		}
		return w.postBody("/fleet/result", send, &resp)
	})
	if err != nil {
		return fmt.Errorf("fleet: result upload for %s failed: %w", lr.ExpID, err)
	}
	if !resp.OK {
		return fmt.Errorf("fleet: coordinator rejected %s result: %s", lr.ExpID, resp.Reason)
	}
	return nil
}

// join announces the worker, backing off while the coordinator is
// unreachable. A refusal (salt or protocol mismatch) is permanent —
// retrying cannot change the coordinator's mind.
func (w *Worker) join(ctx context.Context) (joinResponse, error) {
	var resp joinResponse
	err := retry.Do(ctx, joinPolicy, func() error {
		if err := w.post("/fleet/join", joinRequest{
			Worker: w.id, Salt: harness.SimVersionSalt, Version: ProtocolVersion,
		}, &resp); err != nil {
			return err
		}
		if !resp.OK {
			return retry.Permanent(fmt.Errorf("fleet: coordinator refused join: %s", resp.Reason))
		}
		return nil
	})
	if err == nil {
		// Collect what the coordinator asked for: its hello mirrors its
		// own armed registry / open timeline file.
		w.sendObs.Store(resp.Metrics)
		w.sendSpans.Store(resp.Timeline)
		if resp.Metrics {
			obs.Arm()
		}
		if resp.Timeline {
			obs.EnableTimeline()
		}
	}
	return resp, err
}

// heartbeatLoop renews the worker's liveness until stopped. Send
// failures are ignored — the lease poll does the real erroring — and
// an Unknown answer flags the main loop to rejoin.
//
// Each beat piggybacks the worker's live observability: registry
// entries changed since the last beat that got through (as cumulative
// values — a drop just re-sends them next time), cumulative point
// progress, the busy experiment, and a clock sample (our send
// time plus the previous beat's measured round-trip) the coordinator
// turns into an offset estimate for timeline alignment.
func (w *Worker) heartbeatLoop(stop <-chan struct{}, interval time.Duration) {
	if interval <= 0 {
		interval = 2 * time.Second
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			// Chaos hook: a dropped heartbeat never leaves the worker.
			if faultinject.Should("fleet.heartbeat.drop", w.id) {
				continue
			}
			req := heartbeatRequest{
				Worker: w.id,
				SentNS: time.Now().UnixNano(),
				RTTNS:  w.lastRTT.Load(),
				Points: obs.ProgressPoints(),
			}
			req.Busy, _ = w.busy.Load().(string)
			var pending map[string]uint64
			if w.sendObs.Load() {
				pending = w.pendingObs()
				req.Obs = pending
			}
			t0 := time.Now()
			var resp heartbeatResponse
			if err := w.post("/fleet/heartbeat", req, &resp); err != nil {
				continue
			}
			w.lastRTT.Store(int64(time.Since(t0)))
			w.commitObs(pending)
			if resp.Unknown {
				w.needRejoin.Store(true)
			}
		}
	}
}

// pendingObs returns the registry entries whose cumulative value moved
// since the last acknowledged heartbeat (nil when quiet).
func (w *Worker) pendingObs() map[string]uint64 {
	snap := obs.Snapshot()
	w.obsMu.Lock()
	defer w.obsMu.Unlock()
	var out map[string]uint64
	for k, v := range snap {
		if v != w.lastSent[k] {
			if out == nil {
				out = make(map[string]uint64)
			}
			out[k] = v
		}
	}
	return out
}

// commitObs marks entries as acknowledged after a successful post.
// Max-merge, not overwrite: the registry kept moving while the beat
// was in flight, and regressing lastSent would only cause a harmless
// re-send anyway.
func (w *Worker) commitObs(sent map[string]uint64) {
	if len(sent) == 0 {
		return
	}
	w.obsMu.Lock()
	defer w.obsMu.Unlock()
	if w.lastSent == nil {
		w.lastSent = make(map[string]uint64, len(sent))
	}
	for k, v := range sent {
		if v > w.lastSent[k] {
			w.lastSent[k] = v
		}
	}
}

// post marshals in and POSTs it, decoding the answer into out.
func (w *Worker) post(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	return w.postBody(path, body, out)
}

func (w *Worker) postBody(path string, body []byte, out any) error {
	resp, err := w.client.Post(w.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s: HTTP %d: %s", path, resp.StatusCode, firstLine(strings.TrimSpace(string(buf))))
	}
	if out != nil {
		if err := json.Unmarshal(buf, out); err != nil {
			return fmt.Errorf("fleet: %s: bad response: %w", path, err)
		}
	}
	return nil
}
