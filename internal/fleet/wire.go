// Package fleet distributes an experiment sweep across processes: a
// coordinator shards the selected experiments into lease-based work
// units served over HTTP/JSON (mounted on the obs introspection
// server), and workers join, lease units, execute them with
// harness.RunOne and upload the resulting tables.
//
// The protocol is at-least-once by construction — an expired lease
// re-queues and its unit may execute twice — and made safe by
// determinism: every experiment produces byte-identical tables
// wherever it runs, so the coordinator accepts the first result for a
// unit and counts any later copy as a dedup hit. Accepted results
// funnel through the same content-addressed result cache as a local
// RunAll, so a re-run over that cache skips the same experiments for
// distributed and local sweeps.
//
// Failure handling: workers heartbeat; a worker silent for three
// intervals is presumed dead and its leases re-queue immediately,
// while a wedged-but-alive worker's lease expires at its TTL. If no
// worker ever joins within JoinWait, or pending units sit unleased
// with nothing in flight and no protocol progress for IdleGrace, the
// coordinator degrades gracefully and drains the queue in-process —
// a sweep finishes even when every worker dies mid-run.
package fleet

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"ctbia/internal/harness"
	"ctbia/internal/obs"
)

// ProtocolVersion gates the wire protocol: a join must carry exactly
// this version. The fleet runs one salt-checked binary, so there is no
// older peer to stay compatible with.
//
// Heartbeats carry liveness only: point progress, the busy experiment
// and clock samples. Results carry the table, the per-unit metric
// delta, the worker's cumulative registry snapshot, executed-point
// counts and buffered timeline spans; the join answer names the
// observability (metrics, timeline) the coordinator wants collected.
// Dropping the heartbeats' metric entries needed no bump: the field was
// optional, and JSON decoding ignores it should a peer still send it.
const ProtocolVersion = 2

// maxBodyBytes bounds request and response bodies (tables are a few
// KB; the bound exists so a mangled length can't balloon a read).
const maxBodyBytes = 64 << 20

// joinRequest announces a worker. Salt carries the worker binary's
// simulator version: a worker from a different version would compute
// different tables, so the coordinator refuses the join rather than
// let mixed results poison its cache.
type joinRequest struct {
	Worker  string `json:"worker"`
	Salt    string `json:"salt"`
	Version int    `json:"version"`
}

// joinResponse accepts or refuses a worker and, on accept, hands it
// the run configuration: the coordinator's Quick scale (the worker's
// own -quick flag is overridden — mixed sizes would corrupt the
// sweep), the heartbeat interval, the lease TTL and the observability
// the coordinator wants exercised.
type joinResponse struct {
	OK          bool   `json:"ok"`
	Reason      string `json:"reason,omitempty"`
	Quick       bool   `json:"quick"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	// Metrics asks the worker to arm its obs registry and stream
	// snapshots (the coordinator's registry is armed and merging).
	Metrics bool `json:"metrics,omitempty"`
	// Timeline asks the worker to collect timeline spans and upload
	// them with each result (the coordinator is writing a -timeline).
	Timeline bool `json:"timeline,omitempty"`
}

// leaseRequest asks for one work unit.
type leaseRequest struct {
	Worker string `json:"worker"`
}

// leaseResponse is one of: Done (the sweep finished — the worker can
// exit), Unknown (the coordinator lost track of this worker; rejoin),
// Wait (nothing pending right now; poll again after RetryMS), or a
// granted lease naming the unit to execute.
type leaseResponse struct {
	Done    bool   `json:"done,omitempty"`
	Unknown bool   `json:"unknown,omitempty"`
	Wait    bool   `json:"wait,omitempty"`
	RetryMS int64  `json:"retry_ms,omitempty"`
	LeaseID uint64 `json:"lease_id,omitempty"`
	Idx     int    `json:"idx"`
	ExpID   string `json:"exp_id,omitempty"`
	TTLMS   int64  `json:"ttl_ms,omitempty"`
}

// heartbeatRequest renews a worker's liveness. It deliberately does
// not renew lease deadlines: the lease TTL is an execution deadline,
// so a wedged-but-alive worker still forfeits its unit on time. It also
// reports cumulative point progress, what the worker is executing, and
// a clock sample for offset estimation.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	// SentNS is the worker's clock at send time; with RTTNS (the
	// measured round-trip of the worker's previous heartbeat) the
	// coordinator estimates the worker's clock offset as
	// recv − sent − rtt/2, keeping the smallest-RTT sample.
	SentNS int64 `json:"sent_ns,omitempty"`
	RTTNS  int64 `json:"rtt_ns,omitempty"`
	// Points is the worker's cumulative executed-point count.
	Points uint64 `json:"points,omitempty"`
	// Busy names the experiment currently executing ("" when idle).
	Busy string `json:"busy,omitempty"`
}

type heartbeatResponse struct {
	OK      bool `json:"ok"`
	Unknown bool `json:"unknown,omitempty"`
}

// resultRequest uploads one executed unit. Failed results carry their
// error lines explicitly because Table.Failures is excluded from JSON
// (the coordinator reconstructs a PointError from Errors so the CLI's
// FAILED accounting matches a local run).
type resultRequest struct {
	Worker   string         `json:"worker"`
	LeaseID  uint64         `json:"lease_id"`
	Idx      int            `json:"idx"`
	ExpID    string         `json:"exp_id"`
	Table    *harness.Table `json:"table"`
	Failed   bool           `json:"failed,omitempty"`
	Errors   []string       `json:"errors,omitempty"`
	WallMS   float64        `json:"wall_ms"`
	Machines uint64         `json:"machines"`
	// Metrics is the unit's registry delta (harness.Result.Metrics).
	// The coordinator folds it into its fleet-aggregate registry exactly
	// once per accepted unit — duplicates and re-executions merge
	// nothing, which is what keeps distributed totals equal to serial.
	Metrics map[string]uint64 `json:"metrics,omitempty"`
	// Points counts simulation points executed during this unit.
	Points uint64 `json:"points,omitempty"`
	// Obs is the worker's full cumulative registry snapshot at upload;
	// an accepted upload refreshes the per-worker namespace with it.
	Obs map[string]uint64 `json:"obs,omitempty"`
	// Spans is the worker's buffered timeline, drained at upload.
	Spans []obs.WireEvent `json:"spans,omitempty"`
}

// resultResponse acknowledges an upload. Dup marks a duplicate
// submission for an already-done unit (the at-least-once path); the
// worker treats it exactly like OK. A response with OK unset is a
// rejection the worker must not retry (the body was garbage — the
// unit re-queues at lease expiry instead).
type resultResponse struct {
	OK     bool   `json:"ok"`
	Dup    bool   `json:"dup,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// WorkerReport is one worker's row in the GET /fleet report and the
// CLI's fleet summary block. Rows outlive their workers: a lost
// worker's reported work is real, so its row stays (Live false).
type WorkerReport struct {
	ID   string `json:"id"`
	Live bool   `json:"live"`
	// LastSeenMS is the age of the worker's last protocol contact
	// (-1 when the worker is gone).
	LastSeenMS int64 `json:"last_seen_ms"`
	// Leases counts units currently leased; OldestLeaseMS is the age of
	// the oldest one (how close the worker is running to its TTL).
	Leases        int   `json:"leases"`
	OldestLeaseMS int64 `json:"oldest_lease_ms,omitempty"`
	// UnitsDone counts accepted (non-duplicate) results.
	UnitsDone uint64 `json:"units_done"`
	// Points is the cumulative executed-point count the worker last
	// reported; PointsPerSec averages it over time since join.
	Points       uint64  `json:"points"`
	PointsPerSec float64 `json:"points_per_sec"`
	// MetricLagMS is the age of the worker's last accepted upload —
	// how stale the per-worker namespace is (-1: none yet).
	MetricLagMS int64 `json:"metric_lag_ms"`
	// ClockOffsetMS estimates (coordinator clock − worker clock) from
	// heartbeat RTT midpoints; imported timeline spans are shifted by
	// it. Accuracy is bounded by RTT asymmetry — fine for aligning
	// trace lanes, not for ordering sub-millisecond events.
	ClockOffsetMS float64 `json:"clock_offset_ms"`
	// Busy names the experiment the worker last reported executing.
	Busy string `json:"busy,omitempty"`
}

// FleetReport is the GET /fleet snapshot: unit states, per-worker
// liveness/lease/progress/lag rows, and the coordinator's counters.
type FleetReport struct {
	Total        int               `json:"total"`
	Pending      int               `json:"pending"`
	Leased       int               `json:"leased"`
	Done         int               `json:"done"`
	WorkersLive  int               `json:"workers_live"`
	RemotePoints uint64            `json:"remote_points"`
	Workers      []WorkerReport    `json:"workers,omitempty"`
	Stats        map[string]uint64 `json:"stats"`
}

// readJSON decodes a POST body into dst, answering 405/400 itself on
// a wrong method or an undecodable body (a torn upload lands here —
// the worker retries with the full body).
func readJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body, dst)
	}
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// writeJSON answers with v; encode failures are the client's read
// error to handle.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// firstLine truncates s at its first newline, for one-line summaries.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
