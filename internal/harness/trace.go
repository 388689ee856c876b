package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/faultinject"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
	"ctbia/internal/trace"
	"ctbia/internal/workloads"
)

// The trace-replay engine behind every simulation point: a recorded
// operation stream of a point is replayed through the batched
// interpreter instead of re-running the workload front end. Every
// point enters it the same way, as a group of machine configs that
// share one trace key (fanout.go), and runGroup is its one
// orchestrator.
//
// Keying is the whole trick. For the pure strategies (insecure,
// software-CT, its vector variant) the dynamic op/address stream is a
// function of (workload, params, strategy) alone — the machine
// geometry only changes how the stream is *charged*, never what the
// stream *is* — so those recordings are keyed without the machine
// config and one recording serves every geometry of a sweep. The
// BIA-family strategies read the BIA's existence/dirtiness bitmaps
// through CTLoad, which makes their streams geometry-dependent, so
// their keys keep the full config fingerprint exactly as before.
//
// Replay is trusted only as far as it can be re-verified cheaply: a
// stored trace carries the workload checksum (config-independent,
// recomputed from the pure-Go reference on every replay) and one
// expected report *per machine config* that has replayed it — the
// first replay under a new geometry anchors its report, repeats must
// reproduce it bit-exactly. Any mismatch — a stale or corrupted file,
// behaviour drift — silently falls back to recording fresh. Strategies
// whose behaviour is not a pure function of their value (interference
// hooks, the stateful scratchpad strategy) are never traced.
//
// Every replay is a fan-out group: one stored stream charged to one
// machine per config — a single point is a group of one. The trace
// directory is the engine's one switch. Without one, every point runs
// direct and the engine records, replays and keeps nothing. With one,
// the key's file is the store: a point records and persists its stream
// once, the rest of its group replays that recording, and every later
// lookup, in this process or another, reads the file whole, checks and
// decodes it, replays it and keeps nothing. A file larger than any
// recording can write is refused unread, and one that does not decode
// (corrupt, truncated, or in an older wire format) is a miss; either
// way the point re-records over it.

// traceEntry is one stored stream with its verification anchors. An
// entry belongs to one call — a recording to the call that made it, a
// decoded file to the lookup that read it — so nothing guards reps.
type traceEntry struct {
	ops []trace.Op
	sum uint64 // workload checksum the recording run produced
	src string // config fingerprint of the recording machine
	// reps anchors the expected report per machine-config fingerprint.
	// The recording run seeds its own config; the first replay under
	// any other geometry anchors that geometry's report and repeats
	// must reproduce it.
	reps map[string]cpu.Report
}

// maxTraceOps caps one trace's compressed records (~40 MB). A stream
// too irregular to compress below it aborts its recording — and the
// abort is remembered (see the dead set), because the growth cost paid
// before aborting is the engine's only overhead over a plain run.
const maxTraceOps = 1 << 20

// traceDebug (env CTBIA_TRACE_DEBUG) logs why a group's points did not
// replay: untraceable (impure strategy), aborted (the recording that
// marks a key dead, with the record/event counts that tripped the
// compression gate or the cap), deadrun (a direct run of a dead key),
// quarantined, and each transient replay failure. This is how encoding
// gaps show up: a compressible pattern the recorder doesn't fuse yet
// appears here as a high-event abort.
var traceDebug = os.Getenv("CTBIA_TRACE_DEBUG") != ""

var traceEngine = struct {
	mu  sync.RWMutex
	dir string // "" = no trace directory: every point runs direct
	// inflight single-flights the recordings of a key: the first worker
	// to miss the key becomes its recording leader, later workers block
	// on the channel and re-try the lookup when it closes. Without
	// this a parallel sweep's geometries would all record the same
	// shared stream concurrently — the exact duplication sharing
	// removes.
	inflight map[string]chan struct{}
	// dead remembers keys whose recording aborted (stream past
	// maxTraceOps), so repeats run direct instead of paying the
	// doomed recording again.
	dead map[string]struct{}
	// transients counts transient replay failures per key; at
	// quarantineAfter the key moves to quarantined and the engine is
	// bypassed for it permanently (this process), so a persistently
	// bad point can never loop through retries.
	transients  map[string]int
	quarantined map[string]string // key -> point label, for reporting
}{
	inflight:    make(map[string]chan struct{}),
	dead:        make(map[string]struct{}),
	transients:  make(map[string]int),
	quarantined: make(map[string]string),
}

var (
	traceRecords   atomic.Uint64
	traceReplays   atomic.Uint64
	traceRerecords atomic.Uint64
	traceRetries   atomic.Uint64
	// traceSharedReplays counts replays served by a recording made
	// under a *different* machine config — the sweep-sharing wins.
	traceSharedReplays atomic.Uint64
	// traceBytesSharedAvoided accounts the wire bytes of those shared
	// replays: recording volume a geometry sweep did not re-produce.
	traceBytesSharedAvoided atomic.Uint64
	// traceFanoutReplays counts fan-out passes: one stored stream
	// decoded once and charged to a group of two or more machine
	// geometries.
	traceFanoutReplays atomic.Uint64
	// traceDecodePasses counts full iterations of a stored stream
	// during replay: one per served group, however many machines it
	// charges. The sweep win is this staying at the shared-key count,
	// not the point count.
	traceDecodePasses atomic.Uint64
	// traceDecodeBytesAvoided accounts the wire bytes fan-out did not
	// re-decode: (machines-1) x stream size per fan-out pass.
	traceDecodeBytesAvoided atomic.Uint64
)

// quarantineAfter is how many transient trace-layer failures of one
// key the engine absorbs, each followed at once by a retry that
// re-records the key on the first unserved config, before it bypasses
// the key for good. Nothing is waited for: the retry re-runs a
// deterministic simulation, which no delay can change.
const quarantineAfter = 3

// traceDirNow returns the engine's trace directory ("" = none).
func traceDirNow() string {
	traceEngine.mu.RLock()
	defer traceEngine.mu.RUnlock()
	return traceEngine.dir
}

// SetTraceDir sets the trace directory, the engine's one switch: with
// one, every traceable point records into it once and replays from it;
// with "" (the default) every point runs direct. The directory is
// created eagerly so a misconfigured path surfaces here, not as
// silently-unsaved traces.
func SetTraceDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("harness: trace dir: %w", err)
		}
	}
	traceEngine.mu.Lock()
	traceEngine.dir = dir
	traceEngine.mu.Unlock()
	return nil
}

// ResetTraces forgets dead and quarantined keys and zeroes the counters
// the Trace*Stats accessors read, leaving any persistent directory
// alone. Benchmarks use it to start each pass from a fresh engine.
func ResetTraces() {
	traceEngine.mu.Lock()
	traceEngine.inflight = make(map[string]chan struct{})
	traceEngine.dead = make(map[string]struct{})
	traceEngine.transients = make(map[string]int)
	traceEngine.quarantined = make(map[string]string)
	traceEngine.mu.Unlock()
	traceRecords.Store(0)
	traceReplays.Store(0)
	traceRerecords.Store(0)
	traceRetries.Store(0)
	traceSharedReplays.Store(0)
	traceBytesSharedAvoided.Store(0)
	traceFanoutReplays.Store(0)
	traceDecodePasses.Store(0)
	traceDecodeBytesAvoided.Store(0)
}

// TraceStats returns the engine's counters since the last ResetTraces:
// streams recorded, runs served by replay, and stale or corrupt trace
// files dropped so that their key re-records.
func TraceStats() (records, replays, rerecords uint64) {
	return traceRecords.Load(), traceReplays.Load(), traceRerecords.Load()
}

// TraceShareStats returns the sweep-sharing counters since the last
// ResetTraces: replays served by a recording made under a different
// machine config, and the recording wire bytes those replays avoided.
func TraceShareStats() (sharedReplays, bytesAvoided uint64) {
	return traceSharedReplays.Load(), traceBytesSharedAvoided.Load()
}

// TraceFanoutStats returns the fan-out counters since the last
// ResetTraces: fan-out passes served (groups of two or more machines),
// full decode passes over stored streams (one per served group of any
// size), and the wire bytes fan-out avoided re-decoding.
func TraceFanoutStats() (fanoutReplays, decodePasses, bytesAvoided uint64) {
	return traceFanoutReplays.Load(), traceDecodePasses.Load(), traceDecodeBytesAvoided.Load()
}

// TraceFaultStats returns the fault-tolerance counters since the last
// ResetTraces: retries after transient replay failures, and keys
// quarantined for repeat offenses.
func TraceFaultStats() (retries, quarantined uint64) {
	traceEngine.mu.RLock()
	q := uint64(len(traceEngine.quarantined))
	traceEngine.mu.RUnlock()
	return traceRetries.Load(), q
}

// QuarantinedPoints lists the labels of quarantined points (sorted) so
// ctbench can report repeat offenders alongside the run summary.
func QuarantinedPoints() []string {
	traceEngine.mu.RLock()
	out := make([]string, 0, len(traceEngine.quarantined))
	for _, label := range traceEngine.quarantined {
		out = append(out, label)
	}
	traceEngine.mu.RUnlock()
	sort.Strings(out)
	return out
}

// isQuarantined reports whether the key's trace engine access is
// disabled after repeated transient failures.
func isQuarantined(key string) bool {
	traceEngine.mu.RLock()
	_, ok := traceEngine.quarantined[key]
	traceEngine.mu.RUnlock()
	return ok
}

// isDead reports whether the key's recording previously aborted.
func isDead(key string) bool {
	traceEngine.mu.RLock()
	_, ok := traceEngine.dead[key]
	traceEngine.mu.RUnlock()
	return ok
}

// noteTransient books one transient trace-layer failure for key,
// quarantining repeat offenders, before the caller's retry.
func noteTransient(key, label string, err error) {
	traceRetries.Add(1)
	traceEngine.mu.Lock()
	traceEngine.transients[key]++
	n := traceEngine.transients[key]
	if n >= quarantineAfter {
		traceEngine.quarantined[key] = label
	}
	traceEngine.mu.Unlock()
	if traceDebug {
		fmt.Fprintf(os.Stderr, "TRACEDBG transient %s (failure %d): %v\n", label, n, err)
	}
}

// strategyFingerprint returns a string capturing everything about s
// that can influence a run, whether the recorded stream is independent
// of the machine geometry (share-eligible), and whether the strategy
// is traceable at all. Only pure-value strategies qualify at all: an
// interference Hook makes behaviour call-site dependent, and the
// scratchpad strategy carries mutable state across calls. Of those,
// the insecure and software-CT strategies never read cache or BIA
// state, so their op/address streams depend only on (workload, params,
// strategy); the BIA family consumes CTLoad's existence/dirtiness
// bitmaps, whose contents are a function of the geometry.
func strategyFingerprint(s ct.Strategy) (fp string, shared, ok bool) {
	switch v := s.(type) {
	case ct.Direct:
		return "insecure", true, true
	case ct.Linear:
		return "ct", true, true
	case ct.LinearVec:
		return "ct-avx", true, true
	case ct.BIAMacro:
		return "bia-macro", false, true
	case ct.Preload:
		if v.Hook == nil {
			return "preload", false, true
		}
	case ct.BIA:
		if v.Hook == nil {
			return fmt.Sprintf("bia/t=%d", v.Threshold), false, true
		}
	}
	return "", false, false
}

// workloadTraceKey is the identity of one RunWorkload point: simulator
// salt, workload, exact params and strategy fingerprint — plus, for
// the geometry-dependent strategies only, the BIA placement and
// machine-config fingerprint. Share-eligible strategies get a
// config-free key (marked "shared"), which is what lets one recording
// serve every geometry of a sweep. Empty means untraceable.
func workloadTraceKey(w workloads.Workload, p workloads.Params, s ct.Strategy, biaLevel int, poolFP string) string {
	fp, shared, ok := strategyFingerprint(s)
	if !ok {
		return ""
	}
	if shared {
		return fmt.Sprintf("%s\x1fw:%s\x1f%d/%d/%d\x1f%s\x1fshared",
			SimVersionSalt, w.Name(), p.Size, p.Seed, p.Ops, fp)
	}
	return fmt.Sprintf("%s\x1fw:%s\x1f%d/%d/%d\x1f%s\x1f%d\x1f%s",
		SimVersionSalt, w.Name(), p.Size, p.Seed, p.Ops, fp, biaLevel, poolFP)
}

// kernelTraceKey is workloadTraceKey for the crypto kernels.
func kernelTraceKey(k ctcrypto.Kernel, p ctcrypto.Params, s ct.Strategy, biaLevel int, poolFP string) string {
	fp, shared, ok := strategyFingerprint(s)
	if !ok {
		return ""
	}
	if shared {
		return fmt.Sprintf("%s\x1fk:%s\x1f%d/%d\x1f%s\x1fshared",
			SimVersionSalt, k.Name(), p.Blocks, p.Seed, fp)
	}
	return fmt.Sprintf("%s\x1fk:%s\x1f%d/%d\x1f%s\x1f%d\x1f%s",
		SimVersionSalt, k.Name(), p.Blocks, p.Seed, fp, biaLevel, poolFP)
}

// traceFilePath maps a key to its persistent file (content-addressed
// like the result cache; the full key is embedded in the file and
// checked on load).
func traceFilePath(dir, key string) string {
	return filepath.Join(dir, resultcache.Key(key)+".trace")
}

// repsFromTags rebuilds the per-config report anchors from a trace
// file's header tags; malformed tags are dropped (the replay then
// re-anchors).
func repsFromTags(tags map[string][]uint64) map[string]cpu.Report {
	reps := make(map[string]cpu.Report, len(tags))
	for fp, words := range tags {
		if len(words) == 8 {
			reps[fp] = unpackReport(words)
		}
	}
	return reps
}

// lookupTrace finds a stored stream: the key's file in the trace
// directory dir, read whole, validated (CRCs, embedded key) and
// decoded. The entry lives as long as the replay that asked for it.
// Anything unreadable — larger than any recording writes, corrupt,
// truncated, or in an older wire format — is a miss, and the recording
// that follows writes over it.
func lookupTrace(dir, key string) *traceEntry {
	if faultinject.Should("trace.read", key) {
		return nil // injected read failure: a persisted trace is just a miss
	}
	f, err := os.Open(traceFilePath(dir, key))
	if err != nil {
		return nil
	}
	defer f.Close()
	// Bytes from disk are outside input: a file larger than any
	// recording writes is refused before a buffer is sized for it.
	fi, err := f.Stat()
	if err != nil || fi.Size() > int64(trace.MaxWireSize(maxTraceOps)) {
		return nil
	}
	buf := make([]byte, fi.Size())
	if _, err := io.ReadFull(f, buf); err != nil {
		return nil
	}
	// Injected on-disk corruption: flipped bytes must fail a CRC (or
	// the embedded-key check) below and decay to a miss + re-record.
	buf = faultinject.Corrupt("trace.corrupt", key, buf)
	fkey, src, meta, tags, ops, err := trace.Decode(buf)
	if err != nil || fkey != key || len(meta) != 1 {
		return nil
	}
	return &traceEntry{ops: ops, sum: meta[0], src: src, reps: repsFromTags(tags)}
}

// persistTrace writes an entry to its key's file in the trace
// directory dir (best-effort, temp file + rename).
func persistTrace(dir, key string, e *traceEntry) {
	if faultinject.Should("trace.write", key) {
		return // injected write failure: persistence is best-effort anyway
	}
	tags := make(map[string][]uint64, len(e.reps))
	for fp, rep := range e.reps {
		tags[fp] = packReport(rep)
	}
	buf := trace.Encode(key, e.src, []uint64{e.sum}, tags, e.ops)
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(buf)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), traceFilePath(dir, key)) != nil {
		os.Remove(tmp.Name())
	}
}

// dropTrace removes a stale entry's file from the trace directory dir
// so it cannot be re-loaded and fail again; the next lookup of the key
// misses and re-records it.
func dropTrace(dir, key string) {
	os.Remove(traceFilePath(dir, key))
	traceRerecords.Add(1)
}

// entryWireBytes computes the v2 wire size of an entry as persisted —
// framing, header, report-anchor tags and op chunks — for the obs
// recorded/replayed byte accounting.
func entryWireBytes(key string, e *traceEntry) uint64 {
	n := trace.WireSize(len(key), len(e.src), 1, len(e.ops))
	for fp := range e.reps {
		n += trace.TagWireSize(len(fp), 8)
	}
	return uint64(n)
}

// packReport flattens a report for trace-file metadata.
func packReport(r cpu.Report) []uint64 {
	return []uint64{r.Cycles, r.Insts, r.L1IRefs, r.L1DRefs, r.L2Refs, r.LLCRefs, r.LLMisses, r.DRAM}
}

// unpackReport is packReport's inverse.
func unpackReport(m []uint64) cpu.Report {
	return cpu.Report{
		Cycles: m[0], Insts: m[1], L1IRefs: m[2], L1DRefs: m[3],
		L2Refs: m[4], LLCRefs: m[5], LLMisses: m[6], DRAM: m[7],
	}
}

// verifySum enforces the harness invariant that no experiment reports
// numbers from a run with a wrong answer. It panics with a typed
// *PointError: a wrong checksum from a direct simulation is a permanent
// simulator bug — never retried — that the worker recovery layers turn
// into a FAILED row instead of a crashed sweep.
func verifySum(label string, got, want uint64) {
	if got != want {
		panic(&PointError{Point: label, Attempts: 1,
			Err: fmt.Errorf("harness: %s produced checksum %#x, reference %#x — simulator bug",
				label, got, want)})
	}
}

// runDirect simulates one point with no trace-engine involvement. On a
// verification panic the machine is abandoned rather than pooled.
func runDirect(pool *cpu.Pool, label string, ref func() uint64, sim func(m *cpu.Machine) uint64) cpu.Report {
	sp := obs.StartSpan("direct", label)
	m := pool.Get()
	got := sim(m)
	verifySum(label, got, ref())
	r := m.Report()
	harvest(m)
	pool.Put(m)
	sp.End()
	return r
}

// replayTrace charges one stored stream to one machine from each pool,
// then verifies each machine's report; fps[i] fingerprints pools[i]'s
// config. Verification is per config: replaying under an anchored
// fingerprint must reproduce that anchor bit-exactly, and the first
// replay under a new geometry anchors its report (re-persisting the
// entry's file in dir, so the anchor survives the process).
//
// A panic in the replay layer (an injected fault, or a corrupt decoded
// stream crashing the batched interpreter) is recovered into err so the
// caller can book it and retry by re-recording. ok=false with err=nil
// means the entry is merely stale (checksum or anchor mismatch) —
// re-record, no retry accounting. The checksum is checked before any
// machine is charged, and machines go back to their pools only after
// the whole group verified: a machine charged with a mismatched stream
// may hold arbitrary state, so any failure abandons them all.
func replayTrace(pools []*cpu.Pool, fps []string, dir, key, label string, e *traceEntry, refSum uint64) (out []cpu.Report, ok bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if f, isFault := rec.(*faultinject.Fault); isFault && !f.Transient {
				panic(rec) // permanent injected faults are not the replay layer's to absorb
			}
			ok = false
			err = fmt.Errorf("trace replay %s: %v", label, rec)
		}
	}()
	faultinject.Check("trace.replay", label, true)
	if e.sum != refSum {
		return nil, false, nil
	}
	ms := make([]*cpu.Machine, len(pools))
	out = make([]cpu.Report, len(pools))
	for i, p := range pools {
		ms[i] = p.Get()
		ms[i].ExecTrace(e.ops)
		out[i] = ms[i].Report()
	}
	newAnchor, stale := false, false
	for i, fp := range fps {
		want, anchored := e.reps[fp]
		switch {
		case !anchored:
			e.reps[fp] = out[i]
			newAnchor = true
		case out[i] != want:
			stale = true
		}
	}
	if stale {
		return nil, false, nil
	}
	for i, m := range ms {
		harvest(m)
		pools[i].Put(m)
	}
	if newAnchor {
		persistTrace(dir, key, e)
	}
	return out, true, nil
}

// tryReplay serves one point per pool from the stored entry e and books
// the engine counters. A stale or transiently failing entry is dropped
// (the latter also booked towards quarantine) so the caller falls back
// to recording. The fan-out counters book groups of two or more
// machines only: a group of one decodes nothing it could share.
func tryReplay(pools []*cpu.Pool, fps []string, dir, key, label string, e *traceEntry, ref func() uint64) ([]cpu.Report, bool) {
	span := "replay"
	if len(pools) > 1 {
		span = "fanout"
	}
	rsp := obs.StartSpan(span, label)
	reps, ok, err := replayTrace(pools, fps, dir, key, label, e, ref())
	rsp.End()
	if !ok {
		// Stale or corrupt: forget it and let the caller re-record.
		dropTrace(dir, key)
		if err != nil {
			// Transient replay failure: book it, quarantining repeat
			// offenders, before the caller's retry.
			noteTransient(key, label, err)
		}
		return nil, false
	}
	n := uint64(len(pools))
	bytes := entryWireBytes(key, e)
	traceReplays.Add(n)
	traceDecodePasses.Add(1)
	traceBytesReplayed.Add(bytes * n)
	if n > 1 {
		traceFanoutReplays.Add(1)
		traceDecodeBytesAvoided.Add(bytes * (n - 1))
	}
	for _, fp := range fps {
		if e.src != "" && e.src != fp {
			traceSharedReplays.Add(1)
			traceBytesSharedAvoided.Add(bytes)
		}
	}
	return reps, true
}

// runGroup is the trace engine's one orchestrator. It serves one trace
// key for a group of pooled machines — pools[i] builds machines of the
// config fps[i] fingerprints, the identity report anchors are keyed by
// — writing one report per config into out.
//
// Without a trace directory, and for an untraceable, quarantined or
// dead key, every config runs direct. Otherwise one loop serves the
// group: look the key up; on a miss, record the first unserved config
// under the key's single-flight (a worker that finds the key being
// recorded looks it up again); replay the rest from the stored or fresh
// stream. A stale or transiently failing stream is dropped and booked
// by tryReplay, and the loop re-records without looking the key up
// again; a key that keeps failing is quarantined (see
// QuarantinedPoints). The loop stops when every config is served or the
// key is quarantined or dead, and any config still unserved runs
// direct.
//
// Every config served is one simulation point. A group of one is
// observed as a whole, lookup, decode and replay included; in a larger
// group a recording or a direct run is its config's observed point and
// a replay pass books one point per config it serves.
func runGroup(out []cpu.Report, pools []*cpu.Pool, fps []string, key, label string, ref func() uint64, sim func(m *cpu.Machine) uint64) {
	whole := len(pools) == 1
	point := func(run func()) {
		if whole {
			run()
		} else {
			observePoint(label, run)
		}
	}
	serve := func() {
		i := 0 // out[:i] is served
		dir := traceDirNow()
		traced := key != "" && dir != ""
		var e *traceEntry
		for lookup := true; traced && i < len(pools) && !isQuarantined(key) && !isDead(key); {
			if lookup {
				e, lookup = lookupTrace(dir, key), false
			}
			if e == nil {
				if !recordOnce(key, func() { point(func() { out[i], e = recordPoint(pools[i], dir, key, label, fps[i], ref, sim) }) }) {
					lookup = true // another worker recorded the key: look it up again
					continue
				}
				i++
				if e == nil || i == len(pools) {
					continue // aborted (the key is dead now), or nothing left to replay
				}
			}
			if reps, ok := tryReplay(pools[i:], fps[i:], dir, key, label, e, ref); ok {
				copy(out[i:], reps)
				if !whole {
					for range reps {
						obs.NotePoint()
					}
				}
				i = len(pools)
			}
			// A failed replay re-records at once: the stale file may still
			// be there (dropTrace cannot always remove it), and looking
			// it up again would replay it again.
			e = nil
		}
		if traceDebug && i < len(pools) {
			switch {
			case key == "":
				fmt.Fprintf(os.Stderr, "TRACEDBG untraceable %s\n", label)
			case traced && isQuarantined(key):
				fmt.Fprintf(os.Stderr, "TRACEDBG quarantined %s\n", label)
			case traced && isDead(key):
				fmt.Fprintf(os.Stderr, "TRACEDBG deadrun %s\n", label)
			}
		}
		for ; i < len(pools); i++ {
			point(func() { out[i] = runDirect(pools[i], label, ref, sim) })
		}
	}
	if whole {
		observePoint(label, serve)
	} else {
		serve()
	}
}

// observePoint is the observability layer's per-point anchor: it counts
// one simulation point, opens its "point" span and distributes its wall
// time. Disarmed, the wrapper costs three atomic loads.
func observePoint(label string, run func()) {
	obs.NotePoint()
	if !obs.Enabled() && !obs.TimelineEnabled() {
		run()
		return
	}
	sp := obs.StartSpan("point", label)
	start := time.Now()
	run()
	pointWall.Observe(uint64(time.Since(start).Microseconds()))
	sp.End()
}

// recordOnce single-flights the recordings of one key: the first worker
// to get here becomes the key's recording leader and runs record, and a
// later one waits for the leader to finish and returns false, to look
// the key up again instead of recording the same stream twice.
func recordOnce(key string, record func()) bool {
	traceEngine.mu.Lock()
	ch, busy := traceEngine.inflight[key]
	if !busy {
		ch = make(chan struct{})
		traceEngine.inflight[key] = ch
	}
	traceEngine.mu.Unlock()
	if busy {
		<-ch
		return false
	}
	// Leadership is released, waking the waiters, however the recording
	// ends — including the verifySum panic path.
	defer func() {
		traceEngine.mu.Lock()
		if traceEngine.inflight[key] == ch {
			delete(traceEngine.inflight, key)
		}
		traceEngine.mu.Unlock()
		close(ch)
	}()
	record()
	return true
}

// recordPoint runs one point directly with a recorder attached and
// persists the captured stream to the trace directory dir. It returns
// the run's report and the recording — nil when the recording aborted,
// which marks the key dead.
func recordPoint(pool *cpu.Pool, dir, key, label, cfgFP string, ref func() uint64, sim func(m *cpu.Machine) uint64) (cpu.Report, *traceEntry) {
	rsp := obs.StartSpan("record", label)
	m := pool.Get()
	rec := trace.NewRecorder(maxTraceOps)
	// A stream that barely compresses is not worth recording: replaying
	// near-1:1 records saves little over direct simulation, and the
	// doomed recording's memory churn is the engine's only real cost.
	rec.RequireCompression(3)
	m.SetRecorder(rec)
	got := sim(m)
	m.SetRecorder(nil)
	verifySum(label, got, ref())
	r := m.Report()
	harvest(m)
	pool.Put(m)
	var e *traceEntry
	if t, ok := rec.Take(); ok {
		e = &traceEntry{ops: t.Ops, sum: got, src: cfgFP,
			reps: map[string]cpu.Report{cfgFP: r}}
		persistTrace(dir, key, e)
		traceRecords.Add(1)
		traceBytesRecorded.Add(entryWireBytes(key, e))
	} else {
		if traceDebug {
			recs, evs := rec.DebugCounts()
			fmt.Fprintf(os.Stderr, "TRACEDBG aborted %s records=%d events=%d\n", label, recs, evs)
		}
		traceEngine.mu.Lock()
		traceEngine.dead[key] = struct{}{}
		traceEngine.mu.Unlock()
	}
	rsp.End()
	return r, e
}
