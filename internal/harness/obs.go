package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ctbia/internal/cpu"
	"ctbia/internal/obs"
	"ctbia/internal/resultcache"
)

// Observability glue: the harness is the only simulation layer that
// imports internal/obs. Machine-side statistics are harvested with
// Machine.EmitMetrics right before a machine returns to its pool (after
// that another worker may grab and reset it); the trace engine's
// process-wide counters are exposed as a pull Source; run structure
// (experiment → point → strategy → record/replay) is emitted as
// timeline spans. Everything here is armed-gated, so a disarmed sweep
// pays one atomic load per probe and allocates nothing extra — the
// alloc-budget tests cover the path with this code in place.

// traceBytesRecorded / traceBytesReplayed account trace wire volume:
// bytes a recording would persist, and bytes a replay avoided
// re-simulating. Their ratio is the engine's compression figure.
var (
	traceBytesRecorded atomic.Uint64
	traceBytesReplayed atomic.Uint64
)

// pointWall distributes per-point wall time (µs) in power-of-two
// buckets; long sweeps reveal their straggler points here.
var pointWall = obs.NewHistogram("harness.point_wall_us")

func init() {
	obs.RegisterSource(emitTraceMetrics)
}

// emitTraceMetrics is the trace engine's pull-side metrics producer.
func emitTraceMetrics(emit func(name string, v uint64)) {
	records, replays, rerecords := TraceStats()
	retries, quarantined := TraceFaultStats()
	emit("trace.records", records)
	emit("trace.replays", replays)
	emit("trace.rerecords", rerecords)
	emit("trace.retries", retries)
	emit("trace.quarantined", quarantined)
	emit("trace.bytes_recorded", traceBytesRecorded.Load())
	emit("trace.bytes_replayed", traceBytesReplayed.Load())
	shared, avoided := TraceShareStats()
	emit("trace.shared_replays", shared)
	emit("trace.bytes_shared_avoided", avoided)
	fanouts, passes, decodeAvoided := TraceFanoutStats()
	emit("trace.fanout_replays", fanouts)
	emit("trace.decode_passes", passes)
	emit("trace.decode_bytes_avoided", decodeAvoided)
}

// harvest pushes a machine's per-run statistics into the registry.
// Call before pool.Put — a pooled machine may be re-issued (and reset)
// by another worker immediately after.
func harvest(m *cpu.Machine) {
	if obs.Enabled() {
		m.EmitMetrics(obs.Add)
	}
}

// obsSnapshot returns the registry snapshot when armed, nil otherwise —
// the "before" anchor for per-experiment metric deltas.
func obsSnapshot() map[string]uint64 {
	if !obs.Enabled() {
		return nil
	}
	return obs.Snapshot()
}

// obsDelta attributes the metrics collected since before (a snapshot
// from obsSnapshot) to one experiment. Nil when disarmed.
func obsDelta(before map[string]uint64) map[string]uint64 {
	if before == nil || !obs.Enabled() {
		return nil
	}
	return obs.Delta(before, obs.Snapshot())
}

// busyIDs holds the interned per-slot busy-time counter handles:
// index = worker slot. The name is formatted (and interned) once per
// slot per process, not once per completed item.
var (
	busyIDs atomic.Pointer[[]obs.ID]
	busyMu  sync.Mutex
)

func workerBusyID(slot int) obs.ID {
	if p := busyIDs.Load(); p != nil && slot < len(*p) {
		return (*p)[slot]
	}
	busyMu.Lock()
	defer busyMu.Unlock()
	var ids []obs.ID
	if p := busyIDs.Load(); p != nil {
		if slot < len(*p) {
			return (*p)[slot]
		}
		ids = append(ids, *p...)
	}
	for len(ids) <= slot {
		ids = append(ids, obs.Intern(fmt.Sprintf("harness.worker_%d_busy_us", len(ids))))
	}
	busyIDs.Store(&ids)
	return ids[slot]
}

// noteWorkerBusy books wall time spent executing items on one worker
// slot; comparing slots shows scheduling imbalance across a sweep.
// Callers gate on obs.Enabled (run.go does), so slots only intern
// while armed.
func noteWorkerBusy(slot int, d time.Duration) {
	obs.AddID(workerBusyID(slot), uint64(d.Microseconds()))
}

// Provenance stamps where a sweep's numbers came from: toolchain,
// scheduling width, the Table 1 configuration hash, and the flag line
// the run was invoked with. It lands in the -json header so cached
// sweeps stay attributable.
type Provenance struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// ConfigHash is a short content hash of the default machine
	// configuration's fingerprint — two runs with the same hash
	// simulated the same hardware.
	ConfigHash string `json:"config_hash"`
	// Salt is the simulator version salt the run executed under.
	Salt string `json:"salt"`
	// Flags echoes the command line that produced the run.
	Flags string `json:"flags,omitempty"`
}

// NewProvenance captures the current process's provenance. flags is the
// caller's rendered flag line (empty is fine for library use).
func NewProvenance(flags string) Provenance {
	return Provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ConfigHash: ConfigHash(),
		Salt:       SimVersionSalt,
		Flags:      flags,
	}
}

// ConfigHash returns a short content hash of the default Table 1
// machine configuration.
func ConfigHash() string {
	return resultcache.Key(cpu.DefaultConfig().Fingerprint())[:16]
}
