package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestDeltaHistogramDecomposition: a Delta over snapshots containing
// histogram keys must itself be a well-formed mini-snapshot — the
// per-bucket increments of the window, re-encoded cumulatively. The
// naive cumulative subtraction this replaced lost counts whenever a
// bucket below the new observation had been absent from the earlier
// snapshot.
func TestDeltaHistogramDecomposition(t *testing.T) {
	defer reset()
	reset()
	Arm()
	h := NewHistogram("deltahist")
	h.Observe(3) // bucket le_4
	before := Snapshot()
	h.Observe(100) // bucket le_128 — leaves le_4 unchanged
	h.Observe(100)
	after := Snapshot()
	d := Delta(before, after)
	if d["deltahist.count"] != 2 {
		t.Fatalf("count delta = %d, want 2", d["deltahist.count"])
	}
	if d["deltahist.sum"] != 200 {
		t.Fatalf("sum delta = %d, want 200", d["deltahist.sum"])
	}
	// The two new observations live in bucket le_128 alone; every
	// cumulative key at or above it must say exactly 2, and no delta key
	// below it may exist (nothing landed there in the window).
	if d["deltahist.le_128"] != 2 {
		t.Fatalf("le_128 delta = %d, want 2 (got %v)", d["deltahist.le_128"], d)
	}
	if _, ok := d["deltahist.le_4"]; ok {
		t.Fatalf("le_4 leaked into the delta: %v", d)
	}
}

// TestMergeFlatHistogramRoundTrip: merging a snapshot that contains a
// registered histogram's decomposition must land in the histogram's
// real buckets, so re-exporting reproduces the foreign distribution —
// the property that makes distributed totals equal serial ones.
func TestMergeFlatHistogramRoundTrip(t *testing.T) {
	defer reset()
	reset()
	Arm()
	h := NewHistogram("merged")
	h.Observe(3)
	h.Observe(100)
	h.Observe(5000)
	want := Snapshot()
	foreign := make(map[string]uint64, len(want))
	for k, v := range want {
		foreign[k] = v
	}
	Reset()
	Arm()
	if n := MergeFlat(foreign); n == 0 {
		t.Fatal("MergeFlat merged nothing")
	}
	got := Snapshot()
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s = %d after merge, want %d", k, got[k], v)
		}
	}
	// And a plain counter riding the same snapshot merges additively.
	Add("plain", 4)
	MergeFlat(map[string]uint64{"plain": 6})
	if v := Snapshot()["plain"]; v != 10 {
		t.Fatalf("plain = %d, want 10", v)
	}
}

// TestMergeFlatDoubleApplicationDoubles documents that MergeFlat
// itself is NOT idempotent — exactly-once application is the caller's
// job (the fleet coordinator's dedup gate provides it).
func TestMergeFlatDoubleApplicationDoubles(t *testing.T) {
	defer reset()
	reset()
	Arm()
	snap := map[string]uint64{"twice": 3}
	MergeFlat(snap)
	MergeFlat(snap)
	if v := Snapshot()["twice"]; v != 6 {
		t.Fatalf("twice = %d, want 6 (MergeFlat must stay a plain fold)", v)
	}
}

// TestMergeFlatPastFullNameTable merges one snapshot of 70,000 new
// names, as one fleet upload can carry, into a registry whose name table
// holds at most 65,536. The merge returns, counting only the names that
// fit; a new name added after it is dropped, and a name interned before
// it still counts. The table is process-wide and never shrinks, so the
// test runs in a re-executed child process.
func TestMergeFlatPastFullNameTable(t *testing.T) {
	const childEnv = "OBS_FULL_NAME_TABLE_CHILD"
	if os.Getenv(childEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMergeFlatPastFullNameTable$")
		cmd.Env = append(os.Environ(), childEnv+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child process: %v\n%s", err, out)
		}
		return
	}
	Arm()
	Add("kept", 1)
	nameTab.mu.RLock()
	free := countChunks*countChunkSize - len(nameTab.list)
	nameTab.mu.RUnlock()
	upload := make(map[string]uint64, 70000)
	for i := 0; i < 70000; i++ {
		upload[fmt.Sprintf("upload.%d", i)] = 1
	}
	if n := MergeFlat(upload); n != free {
		t.Fatalf("MergeFlat folded %d entries, want the %d whose names fit", n, free)
	}
	if id := Intern("after.full"); id != -1 {
		t.Fatalf("Intern of a new name on a full table = %d, want -1", id)
	}
	Add("after.full", 5)
	Add("kept", 2)
	snap := Snapshot()
	if v, ok := snap["after.full"]; ok {
		t.Errorf("a new name on a full table was counted: after.full = %d", v)
	}
	if v := snap["kept"]; v != 3 {
		t.Errorf("kept = %d, want 3 (an existing name must still count)", v)
	}
}

// TestQuantileSummariesExportOnly: p50/p95/p99 appear in both export
// formats but never in Snapshot — a derived key that leaked into
// snapshots would be double-merged by MergeFlat on the coordinator.
func TestQuantileSummariesExportOnly(t *testing.T) {
	defer reset()
	reset()
	Arm()
	h := NewHistogram("q")
	for i := 0; i < 99; i++ {
		h.Observe(10) // bucket le_16
	}
	h.Observe(5000) // bucket le_8192
	if _, ok := Snapshot()["q.p50"]; ok {
		t.Fatal("quantile key leaked into Snapshot")
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	// 99% of mass sits in le_16: p50 and p95 report that bucket's upper
	// bound; p99 has rank 99 which the le_16 cumulative count (99)
	// already covers.
	if m["q.p50"] != 16 || m["q.p95"] != 16 || m["q.p99"] != 16 {
		t.Fatalf("quantiles = p50:%d p95:%d p99:%d, want 16/16/16", m["q.p50"], m["q.p95"], m["q.p99"])
	}
	buf.Reset()
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ctbia_q_p50 16") {
		t.Fatalf("Prometheus export lacks quantile line:\n%s", buf.String())
	}
}

// TestFleetProgressLine: a distributed sweep's /progress labels local
// vs remote execution and reports in-flight remote units.
func TestFleetProgressLine(t *testing.T) {
	defer reset()
	reset()
	ProgressAddTotal(10)
	ProgressExpDone(false, false) // local
	ProgressExpDone(false, false) // will be remote
	ProgressFleetOn()
	ProgressRemoteExpDone()
	SetProgressFleet(40, 3, 2)
	line := progressLine()
	for _, want := range []string{"1 remote", "1 local", "40 on workers", "3 units in flight on 2 workers"} {
		if !strings.Contains(line, want) {
			t.Fatalf("progress line %q lacks %q", line, want)
		}
	}
	remoteExp, remotePts, inFlight, workers, active := ProgressFleetCounts()
	if !active || remoteExp != 1 || remotePts != 40 || inFlight != 3 || workers != 2 {
		t.Fatalf("fleet counts = %d/%d/%d/%d active=%v", remoteExp, remotePts, inFlight, workers, active)
	}
	ResetProgress()
	if _, _, _, _, active := ProgressFleetCounts(); active {
		t.Fatal("ResetProgress left the fleet flag set")
	}
}

// TestWireEventsRoundTrip: TakeWireEvents drains the local buffer, and
// ImportWireEvents renders each source as its own clock-shifted
// process row next to the local one.
func TestWireEventsRoundTrip(t *testing.T) {
	defer reset()
	reset()
	EnableTimeline()
	StartSpan("cat", "remote-span").End()
	wire := TakeWireEvents()
	if len(wire) != 1 {
		t.Fatalf("TakeWireEvents returned %d events, want 1", len(wire))
	}
	if n := TimelineEventCount(); n != 0 {
		t.Fatalf("local buffer still holds %d events after drain", n)
	}
	StartSpan("cat", "local-span").End()
	const offset = int64(5_000_000) // +5ms: the source clock ran behind
	ImportWireEvents("w1", offset, wire)
	if n := TimelineImportedCount(); n != 1 {
		t.Fatalf("imported count = %d, want 1", n)
	}
	var buf bytes.Buffer
	if err := WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			PID  int            `json:"pid"`
			TS   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatal(err)
	}
	names := map[int]string{}
	var local, remote *float64
	for i, e := range tf.TraceEvents {
		if e.Ph == "M" && e.Name == "process_name" {
			names[e.PID] = e.Args["name"].(string)
		}
		if e.Ph == "X" {
			ts := tf.TraceEvents[i].TS
			switch e.Name {
			case "local-span":
				local = &ts
			case "remote-span":
				remote = &ts
			}
		}
	}
	if names[1] != "ctbia" || names[2] != "worker w1" {
		t.Fatalf("process names = %v", names)
	}
	if local == nil || remote == nil {
		t.Fatalf("missing spans in %s", buf.String())
	}
	// The remote span happened first (wall clock) but its corrected
	// timestamp is start+5ms; with rebasing to the earliest event the
	// exact values depend on ordering — just require both non-negative.
	if *local < 0 || *remote < 0 {
		t.Fatalf("negative rebased timestamps: local %v remote %v", *local, *remote)
	}
}

// TestImportRespectsCap: imports count against the same buffer bound
// as local collection.
func TestImportRespectsCap(t *testing.T) {
	defer reset()
	reset()
	evs := make([]WireEvent, 1000)
	for i := range evs {
		evs[i] = WireEvent{Name: "e", TS: int64(i), Dur: 1}
	}
	for i := 0; i < maxTimelineEvents/1000+2; i++ {
		ImportWireEvents("flood", 0, evs)
	}
	if n := TimelineImportedCount(); n > maxTimelineEvents {
		t.Fatalf("imported %d events, cap is %d", n, maxTimelineEvents)
	}
}

// TestHealthzDraining: /healthz answers 200 while serving and 503 the
// moment a graceful drain begins.
func TestHealthzDraining(t *testing.T) {
	defer reset()
	reset()
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if code, body := get(t, "http://"+s.Addr()+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz while serving = %d %q, want 200 ok", code, body)
	}
	s.draining.Store(true) // what Shutdown flips before the drain window
	if code, body := get(t, "http://"+s.Addr()+"/healthz"); code != 503 || !strings.Contains(body, "draining") {
		t.Fatalf("healthz while draining = %d %q, want 503 draining", code, body)
	}
}
