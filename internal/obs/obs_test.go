package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// reset restores all package state between tests (the registry is
// process-global, so tests must not run in parallel).
func reset() {
	Disarm()
	Reset()
	ResetProgress()
	DisableTimeline()
	ResetTimeline()
}

func TestDisarmedAddIsInvisible(t *testing.T) {
	defer reset()
	reset()
	Add("x", 5)
	if v, ok := Snapshot()["x"]; ok {
		t.Fatalf("disarmed Add registered x=%d", v)
	}
	AddID(Intern("y"), 5) // an interned name is listed, at zero until added to
	if v := Snapshot()["y"]; v != 0 {
		t.Fatalf("disarmed AddID leaked y=%d", v)
	}
}

func TestArmedCountersAccumulate(t *testing.T) {
	defer reset()
	reset()
	Arm()
	Add("a.b", 2)
	Add("a.b", 3)
	AddID(Intern("a.b"), 4) // the handle path lands in the same cell
	snap := Snapshot()
	if snap["a.b"] != 9 {
		t.Fatalf("a.b = %d, want 9", snap["a.b"])
	}
}

func TestHistogramBucketsAndSnapshot(t *testing.T) {
	defer reset()
	reset()
	Arm()
	h := NewHistogram("lat")
	if h2 := NewHistogram("lat"); h2 != h {
		t.Fatal("NewHistogram did not dedup by name")
	}
	for _, v := range []uint64{1, 2, 3, 100} {
		h.Observe(v)
	}
	snap := Snapshot()
	if snap["lat.count"] != 4 || snap["lat.sum"] != 106 {
		t.Fatalf("count/sum = %d/%d, want 4/106", snap["lat.count"], snap["lat.sum"])
	}
	// 1 -> le_2; 2,3 -> le_4; 100 -> le_128; cumulative counts.
	if snap["lat.le_2"] != 1 || snap["lat.le_4"] != 3 || snap["lat.le_128"] != 4 {
		t.Fatalf("buckets wrong: %v", snap)
	}
}

func TestSourcesAppearInSnapshot(t *testing.T) {
	defer reset()
	reset()
	RegisterSource(func(emit func(string, uint64)) { emit("src.v", 42) })
	if v := Snapshot()["src.v"]; v != 42 {
		t.Fatalf("source value = %d, want 42", v)
	}
}

func TestDelta(t *testing.T) {
	before := map[string]uint64{"a": 1, "b": 5, "c": 2}
	after := map[string]uint64{"a": 4, "b": 5, "c": 1, "d": 7}
	d := Delta(before, after)
	want := map[string]uint64{"a": 3, "d": 7}
	if len(d) != len(want) || d["a"] != 3 || d["d"] != 7 {
		t.Fatalf("Delta = %v, want %v", d, want)
	}
	if Delta(after, after) != nil {
		t.Fatal("identical snapshots should yield nil delta")
	}
}

func TestResetZeroesEverything(t *testing.T) {
	defer reset()
	reset()
	Arm()
	Add("c", 3)
	NewHistogram("h").Observe(9)
	Reset()
	snap := Snapshot()
	for _, k := range []string{"c", "h.count", "h.sum"} {
		if v, ok := snap[k]; ok && v != 0 {
			t.Fatalf("after Reset, %s = %d", k, v)
		}
	}
}

func TestWriteJSONSortedAndParsable(t *testing.T) {
	defer reset()
	reset()
	Arm()
	Add("b.two", 2)
	Add("a.one", 1)
	var buf bytes.Buffer
	if err := WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var m map[string]uint64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if m["a.one"] != 1 || m["b.two"] != 2 {
		t.Fatalf("round-trip lost values: %v", m)
	}
	if i, j := bytes.Index(buf.Bytes(), []byte("a.one")), bytes.Index(buf.Bytes(), []byte("b.two")); i > j {
		t.Fatal("keys not sorted")
	}
}

func TestWritePrometheusNames(t *testing.T) {
	defer reset()
	reset()
	Arm()
	Add("cache.L1D.hits", 12)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := "ctbia_cache_L1D_hits 12\n"
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("prometheus output missing %q:\n%s", want, buf.String())
	}
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	for sc.Scan() {
		var name string
		var v uint64
		if _, err := fmt.Sscanf(sc.Text(), "%s %d", &name, &v); err != nil {
			t.Fatalf("malformed exposition line %q", sc.Text())
		}
	}
}

func TestProgressCountsAndLine(t *testing.T) {
	defer reset()
	reset()
	ProgressAddTotal(3)
	ProgressExpDone(false, false)
	ProgressExpDone(true, false)
	ProgressExpDone(false, true)
	Arm()
	NotePoint()
	NotePoint()
	total, done, failed, cached, points := ProgressCounts()
	if total != 3 || done != 3 || failed != 1 || cached != 1 || points != 2 {
		t.Fatalf("counts = %d/%d/%d/%d/%d", total, done, failed, cached, points)
	}
	line := progressLine()
	if !strings.Contains(line, "3/3 experiments") || !strings.Contains(line, "2 points") {
		t.Fatalf("bad progress line %q", line)
	}
}

func TestStartProgressPrintsFinalLine(t *testing.T) {
	defer reset()
	reset()
	ProgressAddTotal(1)
	ProgressExpDone(false, false)
	var buf bytes.Buffer
	stop := StartProgress(&buf, time.Hour)
	stop()
	stop() // idempotent
	if !strings.Contains(buf.String(), "1/1 experiments") {
		t.Fatalf("stop did not print a final line: %q", buf.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	defer reset()
	reset()
	Arm()
	Add("serve.test", 1)
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := get("/metrics"); !strings.Contains(body, "ctbia_serve_test 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	var m map[string]uint64
	if err := json.Unmarshal([]byte(get("/metrics.json")), &m); err != nil {
		t.Fatalf("/metrics.json not valid JSON: %v", err)
	}
	if !strings.Contains(get("/progress"), "experiments") {
		t.Fatal("/progress missing progress line")
	}
	if !strings.Contains(get("/debug/vars"), "ctbia_metrics") {
		t.Fatal("/debug/vars missing ctbia_metrics")
	}
}

// Concurrent writers plus a poller on SnapshotInto: the registry must
// be race-free and lose nothing once the writers finish.
func TestConcurrentAddLosesNothing(t *testing.T) {
	defer reset()
	reset()
	Arm()
	h := NewHistogram("conc.hist")
	const workers, per = 8, 1000
	stop := make(chan struct{})
	var pw sync.WaitGroup
	pw.Add(1)
	go func() { // poller racing the writers
		defer pw.Done()
		dst := make(map[string]uint64)
		for {
			select {
			case <-stop:
				return
			default:
				SnapshotInto(dst)
			}
		}
	}()
	var ww sync.WaitGroup
	for w := 0; w < workers; w++ {
		ww.Add(1)
		go func() {
			defer ww.Done()
			for i := 0; i < per; i++ {
				Add("conc.counter", 1)
				h.Observe(3)
			}
		}()
	}
	ww.Wait()
	close(stop)
	pw.Wait()
	snap := Snapshot()
	if got := snap["conc.counter"]; got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
	if got := snap["conc.hist.count"]; got != workers*per {
		t.Fatalf("histogram count = %d, want %d", got, workers*per)
	}
}
