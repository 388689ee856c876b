package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctbia/internal/harness"
	"ctbia/internal/obs"
)

// localWorker labels units the coordinator drained in-process (the
// graceful-degradation path).
const localWorker = "(local)"

// Config tunes the coordinator. The zero value gets CLI-scale
// defaults; tests shrink everything.
type Config struct {
	// Addr is the listen address (":0" picks a free port).
	Addr string
	// LeaseTTL is the per-unit execution deadline: a unit still
	// unreported this long after its lease was granted re-queues for
	// someone else (default 60s — comfortably above any single
	// experiment at paper scale; heartbeat loss catches dead workers
	// much faster, this is the backstop for wedged-but-alive ones).
	LeaseTTL time.Duration
	// Heartbeat is the interval workers are told to beat at; a worker
	// silent for three intervals is lost and its leases re-queue
	// (default 2s).
	Heartbeat time.Duration
	// JoinWait is how long the coordinator waits for a first worker
	// before falling back to in-process execution (default 3s).
	JoinWait time.Duration
	// IdleGrace is how long pending units may sit with no lease in
	// flight and no protocol progress before the coordinator drains
	// them in-process (default max(JoinWait, 2s)).
	IdleGrace time.Duration
	// Linger is how long Run keeps the endpoint up after the sweep
	// finishes so polling workers hear Done and exit clean instead of
	// dying on a refused connection (default 500ms; negative disables;
	// skipped entirely when no worker ever joined).
	Linger time.Duration
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Second
	}
	if c.JoinWait <= 0 {
		c.JoinWait = 3 * time.Second
	}
	if c.IdleGrace <= 0 {
		c.IdleGrace = c.JoinWait
		if min := 2 * time.Second; c.IdleGrace < min {
			c.IdleGrace = min
		}
	}
	if c.Linger == 0 {
		c.Linger = 500 * time.Millisecond
	}
	return c
}

// Stats is the coordinator's fleet accounting, exposed to the obs
// registry via EmitMetrics and to the CLI summary via Map.
type Stats struct {
	WorkerJoins      atomic.Uint64
	WorkerLosses     atomic.Uint64
	WorkersLive      atomic.Uint64
	LeasesGranted    atomic.Uint64
	LeasesExpired    atomic.Uint64
	LeasesRequeued   atomic.Uint64
	Heartbeats       atomic.Uint64
	HeartbeatsMissed atomic.Uint64
	ResultsAccepted  atomic.Uint64
	ResultsMalformed atomic.Uint64
	DedupHits        atomic.Uint64
	LocalUnits       atomic.Uint64
	CachedUnits      atomic.Uint64
	// Observability-streaming accounting.
	MetricSnapshots atomic.Uint64 // metric payloads merged (heartbeat deltas + upload snapshots)
	MetricEntries   atomic.Uint64 // individual entries across those payloads
	SpansImported   atomic.Uint64 // timeline spans merged from worker uploads
	RemotePoints    atomic.Uint64 // simulation points executed inside accepted remote units
}

// Map snapshots the counters under flat snake_case names.
func (s *Stats) Map() map[string]uint64 {
	return map[string]uint64{
		"worker_joins":      s.WorkerJoins.Load(),
		"worker_losses":     s.WorkerLosses.Load(),
		"workers_live":      s.WorkersLive.Load(),
		"leases_granted":    s.LeasesGranted.Load(),
		"leases_expired":    s.LeasesExpired.Load(),
		"leases_requeued":   s.LeasesRequeued.Load(),
		"heartbeats":        s.Heartbeats.Load(),
		"heartbeats_missed": s.HeartbeatsMissed.Load(),
		"results_accepted":  s.ResultsAccepted.Load(),
		"results_malformed": s.ResultsMalformed.Load(),
		"dedup_hits":        s.DedupHits.Load(),
		"local_units":       s.LocalUnits.Load(),
		"cached_units":      s.CachedUnits.Load(),
		"metric_snapshots":  s.MetricSnapshots.Load(),
		"metric_entries":    s.MetricEntries.Load(),
		"spans_imported":    s.SpansImported.Load(),
		"remote_points":     s.RemotePoints.Load(),
	}
}

// EmitMetrics enumerates the counters as dotted fleet.* names — the
// pull-side hook the CLI registers as an observability Source.
func (s *Stats) EmitMetrics(emit func(name string, v uint64)) {
	for k, v := range s.Map() {
		emit("fleet."+k, v)
	}
}

// unitState is a work unit's lifecycle: pending -> leased -> done,
// with leased -> pending on expiry or worker loss.
type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitDone
)

// unit is one work unit: a single experiment, its cache key, and its
// lease bookkeeping. One experiment per unit keeps the protocol
// trivially idempotent — a duplicate execution reproduces the same
// table bit for bit.
type unit struct {
	idx      int
	exp      harness.Experiment
	key      string
	state    unitState
	worker   string
	leaseID  uint64
	granted  time.Time // when the current lease was granted (lease-age accounting)
	deadline time.Time // zero for local claims: in-process work never expires
	attempts int
}

// workerState tracks one joined worker's liveness and held leases.
type workerState struct {
	id       string
	lastSeen time.Time
	leases   map[uint64]int // leaseID -> unit index
}

// workerObs is the coordinator's observability image of one worker:
// the max-merged cumulative registry the worker streams over
// heartbeats and uploads, its point progress, and the clock-offset
// estimate used to place its timeline spans. Unlike workerState it
// survives worker loss — a dead worker's reported work is still real,
// so its per-worker metrics and fleet report row persist.
type workerObs struct {
	joinedAt time.Time
	lastObs  time.Time         // last metric report (zero: never reported)
	cum      map[string]uint64 // cumulative registry entries, max-merged per key
	points   uint64            // cumulative executed points, max-merged
	unitPts  uint64            // points summed over accepted units (floor under points)
	units    uint64            // accepted (non-duplicate) results
	busy     string            // experiment last reported executing
	offNS    int64             // estimated local−worker clock offset
	offRTT   int64             // RTT of the heartbeat that produced offNS (0: no timed sample yet)
}

// leaseAgeHist distributes grant→accept latency of remote units (ms) —
// how long leases actually live against their TTL.
var leaseAgeHist = obs.NewHistogram("fleet.lease_age_ms")

// Coordinator owns a sweep's work queue and its result sinks. Build
// one with NewCoordinator (which binds the endpoint) and drive it
// with Run.
type Coordinator struct {
	cfg  Config
	opts harness.Options
	srv  *obs.Server

	mu           sync.Mutex
	units        []*unit
	results      []harness.Result
	open         int // units not yet done
	workers      map[string]*workerState
	nextLease    uint64
	everJoined   bool
	lastProgress time.Time
	start        time.Time
	draining     bool
	finished     bool

	// obsMu guards obsWorkers separately from mu: metric merges and
	// report rendering never contend with the lease path, and neither
	// lock is ever held while taking the other (or while calling into
	// the obs registry), so no ordering can deadlock.
	obsMu      sync.Mutex
	obsWorkers map[string]*workerObs

	done  chan struct{}
	stats Stats
}

// NewCoordinator shards exps (all registered experiments when nil)
// into work units, binds the fleet endpoint on cfg.Addr and mounts
// the protocol handlers — but does not serve yet; Run does, after the
// result cache has been consulted.
func NewCoordinator(cfg Config, exps []harness.Experiment, o harness.Options) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if exps == nil {
		exps = harness.Experiments()
	}
	// Same clamp as RunAll: extra workers beyond the CPUs only add
	// scheduling overhead inside the experiments' own fan-out.
	if max := runtime.GOMAXPROCS(0); o.Parallel > max {
		o.Parallel = max
	}
	c := &Coordinator{
		cfg:        cfg,
		opts:       o,
		units:      make([]*unit, len(exps)),
		results:    make([]harness.Result, len(exps)),
		open:       len(exps),
		workers:    make(map[string]*workerState),
		obsWorkers: make(map[string]*workerObs),
		done:       make(chan struct{}),
	}
	for i, e := range exps {
		c.units[i] = &unit{idx: i, exp: e, key: harness.CacheKey(e, o)}
	}
	if c.open == 0 {
		c.finished = true
		close(c.done)
	}
	srv, err := obs.NewServer(cfg.Addr)
	if err != nil {
		return nil, err
	}
	c.srv = srv
	srv.HandleFunc("/fleet/join", c.handleJoin)
	srv.HandleFunc("/fleet/lease", c.handleLease)
	srv.HandleFunc("/fleet/heartbeat", c.handleHeartbeat)
	srv.HandleFunc("/fleet/result", c.handleResult)
	srv.HandleFunc("/fleet/status", c.handleStatus)
	srv.HandleFunc("/fleet", c.handleFleet)
	return c, nil
}

// Addr returns the bound endpoint address (useful with ":0").
func (c *Coordinator) Addr() string { return c.srv.Addr() }

// Stats exposes the fleet accounting (live — the counters move while
// Run is in flight).
func (c *Coordinator) Stats() *Stats { return &c.stats }

// Close tears the endpoint down. Run does this itself on every
// return; Close is for abandoning a coordinator that never ran.
func (c *Coordinator) Close() error { return c.srv.Close() }

// Run executes the sweep: cached units are served first (so -resume
// behaves identically to a local run), then the endpoint opens for
// workers while the liveness scanner re-queues expired leases, retires
// silent workers and falls back to in-process draining when the fleet
// cannot make progress. Results come back in input order, tables
// byte-identical to a local RunAll of the same experiments.
func (c *Coordinator) Run(ctx context.Context) ([]harness.Result, error) {
	defer c.srv.Close()
	obs.ProgressAddTotal(len(c.units))
	obs.ProgressFleetOn() // label /progress distributed from the first line
	c.serveCached()
	c.mu.Lock()
	c.start = time.Now()
	c.lastProgress = c.start
	c.mu.Unlock()
	c.srv.Start()
	ticker := time.NewTicker(c.scanInterval())
	defer ticker.Stop()
loop:
	for {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.done:
			break loop
		case now := <-ticker.C:
			c.scan(now)
		}
	}
	// The sweep is durable before anyone is told it finished: commit
	// the journal tail and drain the cache's write-behind queue, then
	// linger briefly so polling workers hear Done instead of dying on
	// a refused connection.
	c.opts.Manifest.Flush()
	if c.opts.Cache != nil {
		c.opts.Cache.Flush()
	}
	c.mu.Lock()
	sawWorkers := c.everJoined
	c.mu.Unlock()
	if c.cfg.Linger > 0 && sawWorkers {
		t := time.NewTimer(c.cfg.Linger)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
	c.mu.Lock()
	out := make([]harness.Result, len(c.results))
	copy(out, c.results)
	c.mu.Unlock()
	return out, nil
}

// serveCached resolves every unit the result cache already answers,
// mirroring RunAll's lookup path (including quarantining decodable
// garbage). Runs before the endpoint opens, so workers only ever see
// the units that actually need simulating.
func (c *Coordinator) serveCached() {
	if c.opts.Cache == nil {
		return
	}
	for _, u := range c.units {
		var cached harness.Table
		lsp := obs.StartSpan("cache-lookup", u.exp.ID)
		hit := c.opts.Cache.Load(u.key, &cached)
		lsp.End()
		if !hit {
			continue
		}
		if !cached.UsableFor(u.exp.ID) {
			c.opts.Cache.Quarantine(u.key)
			continue
		}
		c.mu.Lock()
		u.state = unitDone
		c.open--
		c.results[u.idx] = harness.Result{Experiment: u.exp, Table: &cached, Cached: true}
		sweepDone := c.open == 0 && !c.finished
		if sweepDone {
			c.finished = true
		}
		c.mu.Unlock()
		c.stats.CachedUnits.Add(1)
		c.opts.Manifest.Record(u.exp.ID, harness.ManifestEntry{Status: "ok", Key: u.key})
		obs.ProgressExpDone(true, false)
		if sweepDone {
			close(c.done)
		}
	}
}

// scanInterval paces the liveness scanner: fast enough to react well
// within a lease TTL or heartbeat window, slow enough to cost nothing.
func (c *Coordinator) scanInterval() time.Duration {
	s := c.cfg.LeaseTTL / 8
	if hb := c.cfg.Heartbeat / 2; hb < s {
		s = hb
	}
	if s > 500*time.Millisecond {
		s = 500 * time.Millisecond
	}
	if s < 5*time.Millisecond {
		s = 5 * time.Millisecond
	}
	return s
}

// scan is one liveness tick: expire overdue leases, retire silent
// workers, and decide whether the coordinator must drain in-process.
func (c *Coordinator) scan(now time.Time) {
	drain := false
	c.mu.Lock()
	// Expired leases: the unit outlived its execution deadline (a
	// wedged worker, or one stalled past its TTL). Re-queue; a late
	// upload is still accepted, and the re-run dedups against it.
	for _, u := range c.units {
		if u.state != unitLeased || u.deadline.IsZero() || now.Before(u.deadline) {
			continue
		}
		if ws := c.workers[u.worker]; ws != nil {
			delete(ws.leases, u.leaseID)
		}
		u.state = unitPending
		u.worker = ""
		c.stats.LeasesExpired.Add(1)
		c.stats.LeasesRequeued.Add(1)
	}
	// Lost workers: three missed heartbeats and the worker is presumed
	// dead; its leases re-queue immediately instead of waiting out the
	// TTL. A resurrected worker gets Unknown on its next call and
	// rejoins; its late uploads are still accepted.
	lostAfter := 3 * c.cfg.Heartbeat
	for id, ws := range c.workers {
		silent := now.Sub(ws.lastSeen)
		if silent <= lostAfter {
			continue
		}
		c.stats.HeartbeatsMissed.Add(uint64(silent / c.cfg.Heartbeat))
		for leaseID, idx := range ws.leases {
			u := c.units[idx]
			if u.state == unitLeased && u.leaseID == leaseID {
				u.state = unitPending
				u.worker = ""
				c.stats.LeasesRequeued.Add(1)
			}
		}
		delete(c.workers, id)
		c.stats.WorkerLosses.Add(1)
		c.stats.WorkersLive.Add(^uint64(0))
	}
	// Graceful degradation: drain in-process when the fleet cannot
	// make progress — nobody ever joined within JoinWait, or pending
	// units sit unleased with nothing in flight and no join, grant or
	// accepted result for IdleGrace. Heartbeats deliberately do not
	// count as progress: a fleet that only heartbeats is not working.
	if !c.draining && c.pendingLocked() > 0 {
		switch {
		case !c.everJoined && now.Sub(c.start) >= c.cfg.JoinWait:
			drain = true
		case c.everJoined && c.remoteLeasesLocked() == 0 && now.Sub(c.lastProgress) >= c.cfg.IdleGrace:
			drain = true
		}
		if drain {
			c.draining = true
		}
	}
	c.mu.Unlock()
	c.updateFleetProgress()
	if drain {
		go c.drainLocal()
	}
}

// updateFleetProgress feeds the remote-side figures (worker-reported
// cumulative points, in-flight remote leases, live workers) to the obs
// progress line. Never holds both locks at once.
func (c *Coordinator) updateFleetProgress() {
	c.mu.Lock()
	inFlight := uint64(c.remoteLeasesLocked())
	workers := uint64(len(c.workers))
	c.mu.Unlock()
	var pts uint64
	c.obsMu.Lock()
	for _, wo := range c.obsWorkers {
		pts += wo.points
	}
	c.obsMu.Unlock()
	obs.SetProgressFleet(pts, inFlight, workers)
}

// pendingLocked counts unleased, undone units.
func (c *Coordinator) pendingLocked() int {
	n := 0
	for _, u := range c.units {
		if u.state == unitPending {
			n++
		}
	}
	return n
}

// remoteLeasesLocked counts leases held by workers (local claims are
// the coordinator's own and never block the drain decision).
func (c *Coordinator) remoteLeasesLocked() int {
	n := 0
	for _, u := range c.units {
		if u.state == unitLeased && u.worker != localWorker {
			n++
		}
	}
	return n
}

// drainLocal claims pending units one at a time and executes them
// in-process (each experiment still fans out over opts.Parallel
// internally). It shares the accept path with worker uploads, so a
// worker that comes back mid-drain dedups cleanly against it.
func (c *Coordinator) drainLocal() {
	defer func() {
		c.mu.Lock()
		c.draining = false
		c.mu.Unlock()
	}()
	for {
		c.mu.Lock()
		var u *unit
		for _, cand := range c.units {
			if cand.state == unitPending {
				u = cand
				break
			}
		}
		if u == nil {
			c.mu.Unlock()
			return
		}
		c.nextLease++
		u.state = unitLeased
		u.worker = localWorker
		u.leaseID = c.nextLease
		u.granted = time.Now()
		u.deadline = time.Time{}
		u.attempts++
		idx, exp := u.idx, u.exp
		c.mu.Unlock()
		c.accept(idx, harness.RunOne(exp, c.opts), localWorker)
	}
}

// accept integrates one result for the unit at idx — a worker upload
// or the local drain — and journals it exactly like RunAll: failed
// results land in the manifest as "failed" and never touch the cache;
// clean tables are cached and journaled "ok". Duplicate submissions
// for an already-done unit are dedup hits: the first result won, and
// determinism makes the copies identical, so the duplicate is dropped
// without touching any sink.
func (c *Coordinator) accept(idx int, res harness.Result, from string) (dup bool) {
	c.mu.Lock()
	u := c.units[idx]
	if u.state == unitDone {
		c.mu.Unlock()
		c.stats.DedupHits.Add(1)
		return true
	}
	if ws := c.workers[u.worker]; ws != nil {
		delete(ws.leases, u.leaseID)
	}
	u.state = unitDone
	c.open--
	c.results[idx] = res
	c.lastProgress = time.Now()
	sweepDone := c.open == 0 && !c.finished
	if sweepDone {
		c.finished = true
	}
	c.mu.Unlock()
	if from == localWorker {
		c.stats.LocalUnits.Add(1)
	} else {
		c.stats.ResultsAccepted.Add(1)
	}
	wallMS := float64(res.Wall.Microseconds()) / 1000
	if res.Failed() {
		c.opts.Manifest.Record(u.exp.ID, harness.ManifestEntry{
			Status: "failed", Key: u.key,
			Error: failLine(res), WallMS: wallMS, Metrics: res.Metrics,
		})
		obs.ProgressExpDone(false, true)
	} else {
		if c.opts.Cache != nil {
			_ = c.opts.Cache.Save(u.key, res.Table)
		}
		c.opts.Manifest.Record(u.exp.ID, harness.ManifestEntry{
			Status: "ok", Key: u.key, WallMS: wallMS, Metrics: res.Metrics,
		})
		obs.ProgressExpDone(false, false)
	}
	if sweepDone {
		close(c.done)
	}
	return false
}

// failLine summarizes a failed result for the manifest.
func failLine(res harness.Result) string {
	if res.Err != nil {
		return firstLine(res.Err.Error())
	}
	if res.Table != nil && len(res.Table.Failures) > 0 {
		return firstLine(res.Table.Failures[0].Error())
	}
	return "failed"
}

func (c *Coordinator) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Version != ProtocolVersion {
		writeJSON(w, joinResponse{Reason: fmt.Sprintf(
			"protocol version %d, coordinator speaks %d", req.Version, ProtocolVersion)})
		return
	}
	if req.Salt != harness.SimVersionSalt {
		writeJSON(w, joinResponse{Reason: fmt.Sprintf(
			"simulator version mismatch: coordinator %q, worker %q", harness.SimVersionSalt, req.Salt)})
		return
	}
	if req.Worker == "" {
		writeJSON(w, joinResponse{Reason: "empty worker id"})
		return
	}
	now := time.Now()
	c.mu.Lock()
	if ws := c.workers[req.Worker]; ws != nil {
		ws.lastSeen = now // rejoin: refresh, don't recount
	} else {
		c.workers[req.Worker] = &workerState{id: req.Worker, lastSeen: now, leases: make(map[uint64]int)}
		c.everJoined = true
		c.lastProgress = now
		c.stats.WorkerJoins.Add(1)
		c.stats.WorkersLive.Add(1)
	}
	c.mu.Unlock()
	c.obsMu.Lock()
	if c.obsWorkers[req.Worker] == nil {
		c.obsWorkers[req.Worker] = &workerObs{joinedAt: now, cum: make(map[string]uint64)}
	}
	c.obsMu.Unlock()
	// Ask for exactly the observability this coordinator is itself
	// collecting; a worker streaming into a disarmed registry would be
	// pure overhead.
	writeJSON(w, joinResponse{
		OK:          true,
		Quick:       c.opts.Quick,
		HeartbeatMS: c.cfg.Heartbeat.Milliseconds(),
		LeaseTTLMS:  c.cfg.LeaseTTL.Milliseconds(),
		Metrics:     obs.Enabled(),
		Timeline:    obs.TimelineEnabled(),
	})
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !readJSON(w, r, &req) {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if c.open == 0 {
		c.mu.Unlock()
		writeJSON(w, leaseResponse{Done: true})
		return
	}
	ws := c.workers[req.Worker]
	if ws == nil {
		c.mu.Unlock()
		writeJSON(w, leaseResponse{Unknown: true})
		return
	}
	ws.lastSeen = now
	for _, u := range c.units {
		if u.state != unitPending {
			continue
		}
		c.nextLease++
		u.state = unitLeased
		u.worker = req.Worker
		u.leaseID = c.nextLease
		u.granted = now
		u.deadline = now.Add(c.cfg.LeaseTTL)
		u.attempts++
		ws.leases[u.leaseID] = u.idx
		c.lastProgress = now
		resp := leaseResponse{LeaseID: u.leaseID, Idx: u.idx, ExpID: u.exp.ID, TTLMS: c.cfg.LeaseTTL.Milliseconds()}
		c.mu.Unlock()
		c.stats.LeasesGranted.Add(1)
		writeJSON(w, resp)
		return
	}
	c.mu.Unlock()
	// Everything is leased out; poll again shortly.
	retryIn := c.cfg.Heartbeat / 4
	if retryIn < 50*time.Millisecond {
		retryIn = 50 * time.Millisecond
	}
	writeJSON(w, leaseResponse{Wait: true, RetryMS: retryIn.Milliseconds()})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req heartbeatRequest
	if !readJSON(w, r, &req) {
		return
	}
	recvNS := time.Now().UnixNano()
	c.mu.Lock()
	ws := c.workers[req.Worker]
	if ws != nil {
		ws.lastSeen = time.Now()
	}
	c.mu.Unlock()
	if ws == nil {
		writeJSON(w, heartbeatResponse{Unknown: true})
		return
	}
	c.stats.Heartbeats.Add(1)
	if req.SentNS != 0 {
		c.noteHeartbeatObs(&req, recvNS)
		c.updateFleetProgress()
	}
	writeJSON(w, heartbeatResponse{OK: true})
}

// noteHeartbeatObs folds one heartbeat's piggybacked observability
// into the worker's image: max-merge the changed registry entries
// (cumulative values make re-sends after a dropped beat idempotent),
// track point progress and what the worker is busy on, and refine the
// clock-offset estimate from the RTT sample.
func (c *Coordinator) noteHeartbeatObs(req *heartbeatRequest, recvNS int64) {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	wo := c.obsWorkers[req.Worker]
	if wo == nil { // resurrected worker racing its rejoin; start an image anyway
		wo = &workerObs{joinedAt: time.Now(), cum: make(map[string]uint64)}
		c.obsWorkers[req.Worker] = wo
	}
	wo.lastObs = time.Now()
	wo.busy = req.Busy
	if req.Points > wo.points {
		wo.points = req.Points
	}
	for k, v := range req.Obs {
		if v > wo.cum[k] {
			wo.cum[k] = v
		}
	}
	if n := len(req.Obs); n > 0 {
		c.stats.MetricSnapshots.Add(1)
		c.stats.MetricEntries.Add(uint64(n))
	}
	// Clock offset ≈ recv − sent − rtt/2. Keep the smallest-RTT sample
	// (least asymmetry headroom); the first beat carries no RTT yet, so
	// accept its crude recv−sent only until a timed sample lands.
	off := recvNS - req.SentNS - req.RTTNS/2
	switch {
	case req.RTTNS > 0 && (wo.offRTT <= 0 || req.RTTNS < wo.offRTT):
		wo.offNS, wo.offRTT = off, req.RTTNS
	case wo.offRTT <= 0 && wo.offNS == 0:
		wo.offNS = off
	}
}

// clockOffsetFor returns the current local−worker offset estimate.
func (c *Coordinator) clockOffsetFor(id string) int64 {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	if wo := c.obsWorkers[id]; wo != nil {
		return wo.offNS
	}
	return 0
}

func (c *Coordinator) handleResult(w http.ResponseWriter, r *http.Request) {
	var req resultRequest
	if !readJSON(w, r, &req) {
		c.stats.ResultsMalformed.Add(1) // a torn upload lands here
		return
	}
	c.mu.Lock()
	if req.Idx < 0 || req.Idx >= len(c.units) || c.units[req.Idx].exp.ID != req.ExpID {
		c.mu.Unlock()
		c.stats.ResultsMalformed.Add(1)
		writeJSON(w, resultResponse{Reason: fmt.Sprintf("unknown unit %d/%s", req.Idx, req.ExpID)})
		return
	}
	exp := c.units[req.Idx].exp
	granted := c.units[req.Idx].granted
	c.mu.Unlock()
	res := harness.Result{
		Experiment: exp,
		Table:      req.Table,
		Wall:       time.Duration(req.WallMS * float64(time.Millisecond)),
		Machines:   req.Machines,
		Metrics:    req.Metrics,
	}
	if req.Failed {
		// Table.Failures doesn't survive JSON; rebuild the error so
		// the CLI's FAILED accounting matches a local run.
		msg := "worker reported failure"
		if len(req.Errors) > 0 {
			msg = req.Errors[0]
		}
		res.Err = &harness.PointError{Experiment: exp.ID, Err: errors.New(msg), Attempts: 1}
		if res.Table == nil {
			t := &harness.Table{ID: exp.ID, Title: exp.Title, Paper: exp.Paper,
				Headers: []string{"status", "error"}}
			t.AddRow("FAILED", msg)
			res.Table = t
		}
	} else if !res.Table.UsableFor(exp.ID) {
		// Decoded cleanly but is garbage (null body, wrong experiment):
		// reject so the unit re-queues at lease expiry and recomputes —
		// a mangled upload must never reach the cache or the tables.
		c.stats.ResultsMalformed.Add(1)
		writeJSON(w, resultResponse{Reason: "unusable table"})
		return
	}
	dup := c.accept(req.Idx, res, req.Worker)
	if !dup {
		c.noteRemoteUpload(&req, granted)
	}
	writeJSON(w, resultResponse{OK: true, Dup: dup})
}

// noteRemoteUpload books one accepted (non-duplicate) remote unit's
// observability. This is the exact plane: req.Metrics is the unit's
// own registry delta, merged into the coordinator's fleet-aggregate
// registry exactly once per unit — duplicates never reach here, so
// distributed totals match a serial run of the same sweep. The
// worker's full cumulative snapshot refreshes the per-worker
// namespace, and its drained timeline spans land under the worker's
// process row, shifted onto the coordinator's clock.
func (c *Coordinator) noteRemoteUpload(req *resultRequest, granted time.Time) {
	obs.ProgressRemoteExpDone()
	if !granted.IsZero() {
		if age := time.Since(granted); age > 0 {
			leaseAgeHist.Observe(uint64(age.Milliseconds()))
		}
	}
	if len(req.Metrics) > 0 {
		n := obs.MergeFlat(req.Metrics)
		c.stats.MetricSnapshots.Add(1)
		c.stats.MetricEntries.Add(uint64(n))
	}
	if len(req.Spans) > 0 {
		obs.ImportWireEvents(req.Worker, c.clockOffsetFor(req.Worker), req.Spans)
		c.stats.SpansImported.Add(uint64(len(req.Spans)))
	}
	c.stats.RemotePoints.Add(req.Points)
	c.obsMu.Lock()
	wo := c.obsWorkers[req.Worker]
	if wo == nil {
		wo = &workerObs{joinedAt: time.Now(), cum: make(map[string]uint64)}
		c.obsWorkers[req.Worker] = wo
	}
	wo.units++
	if len(req.Obs) > 0 {
		wo.lastObs = time.Now()
		for k, v := range req.Obs {
			if v > wo.cum[k] {
				wo.cum[k] = v
			}
		}
	}
	// Upload Points is the unit's own count, not the worker's cumulative
	// one: accumulate it and use the sum as a floor under the
	// heartbeat-fed cumulative figure (both are monotonic, and the
	// heartbeat one additionally counts in-flight work).
	wo.unitPts += req.Points
	if wo.unitPts > wo.points {
		wo.points = wo.unitPts
	}
	c.obsMu.Unlock()
	c.updateFleetProgress()
}

// FleetReport snapshots the fleet for GET /fleet and the CLI's fleet
// summary block: unit states plus one row per worker the coordinator
// has ever seen (rows outlive their workers — a lost worker's
// completed units are still part of the sweep).
func (c *Coordinator) FleetReport() FleetReport {
	now := time.Now()
	type liveInfo struct {
		lastSeen time.Time
		leases   int
		oldest   time.Time
	}
	fr := FleetReport{}
	live := make(map[string]liveInfo)
	c.mu.Lock()
	fr.Total = len(c.units)
	for _, u := range c.units {
		switch u.state {
		case unitPending:
			fr.Pending++
		case unitLeased:
			fr.Leased++
		case unitDone:
			fr.Done++
		}
		if u.state == unitLeased && u.worker != localWorker {
			li := live[u.worker]
			li.leases++
			if li.oldest.IsZero() || u.granted.Before(li.oldest) {
				li.oldest = u.granted
			}
			live[u.worker] = li
		}
	}
	for id, ws := range c.workers {
		li := live[id]
		li.lastSeen = ws.lastSeen
		live[id] = li
	}
	fr.WorkersLive = len(c.workers)
	c.mu.Unlock()

	c.obsMu.Lock()
	ids := make([]string, 0, len(c.obsWorkers))
	for id := range c.obsWorkers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		wo := c.obsWorkers[id]
		li, isLive := live[id]
		wr := WorkerReport{
			ID:            id,
			Live:          isLive && !li.lastSeen.IsZero(),
			LastSeenMS:    -1,
			Leases:        li.leases,
			UnitsDone:     wo.units,
			Points:        wo.points,
			MetricLagMS:   -1,
			ClockOffsetMS: float64(wo.offNS) / 1e6,
			Busy:          wo.busy,
		}
		if wr.Live {
			wr.LastSeenMS = now.Sub(li.lastSeen).Milliseconds()
		}
		if !li.oldest.IsZero() {
			wr.OldestLeaseMS = now.Sub(li.oldest).Milliseconds()
		}
		if !wo.lastObs.IsZero() {
			wr.MetricLagMS = now.Sub(wo.lastObs).Milliseconds()
		}
		if age := now.Sub(wo.joinedAt).Seconds(); age > 0 && wo.points > 0 {
			wr.PointsPerSec = float64(wo.points) / age
		}
		fr.RemotePoints += wo.points
		fr.Workers = append(fr.Workers, wr)
	}
	c.obsMu.Unlock()
	fr.Stats = c.stats.Map()
	return fr
}

// handleFleet serves the fleet report on GET /fleet.
func (c *Coordinator) handleFleet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, c.FleetReport())
}

// EmitWorkerMetrics enumerates each worker's streamed registry image
// under the fleet.worker.<id>.* namespace — the per-worker plane next
// to the exact fleet-aggregate one MergeFlat maintains. Registered as
// an obs Source by the CLI (only for coordinator runs: an idle
// process shouldn't grow its snapshot by worker count).
func (c *Coordinator) EmitWorkerMetrics(emit func(name string, v uint64)) {
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	for id, wo := range c.obsWorkers {
		prefix := "fleet.worker." + id + "."
		for k, v := range wo.cum {
			emit(prefix+k, v)
		}
		emit(prefix+"points", wo.points)
		emit(prefix+"units_done", wo.units)
	}
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	st := statusReport{Total: len(c.units), Workers: len(c.workers)}
	for _, u := range c.units {
		switch u.state {
		case unitPending:
			st.Pending++
		case unitLeased:
			st.Leased++
		case unitDone:
			st.Done++
		}
	}
	c.mu.Unlock()
	st.Stats = c.stats.Map()
	writeJSON(w, st)
}
