package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ctbia/internal/harness"
)

// TestMain lets the smoke test's child processes, which are this test
// binary, reach the bench's child entry point.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected values are Python's statistics.quantiles (exclusive
// method), which the acceptance check on a run's spread uses.
func TestQuantilesMatchPython(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{seq(5), 1.5, 3, 4.5},
		{[]float64{5, 1}, 0, 3, 6},
	} {
		q1, q3 := quantile(c.xs, 1, 4), quantile(c.xs, 3, 4)
		if !near(q1, c.q1) || !near(median(c.xs), c.m) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.xs, q1, median(c.xs), q3, c.q1, c.m, c.q3)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %v, want 2", got)
	}
	if got, _ := percentile(seq(100), 90); !near(got, 90.9) {
		t.Errorf("p90 of 1..100 = %v, want 90.9", got)
	}
}

// A tail percentile is refused unless ten samples lie beyond it.
func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		p, n int
		ok   bool
	}{
		{90, 99, false}, {90, 100, true},
		{75, 39, false}, {75, 40, true},
		{50, 20, true}, {50, 19, false},
	} {
		xs := make([]float64, c.n)
		for i := range xs {
			xs[i] = float64(i)
		}
		if _, ok := percentile(xs, c.p); ok != c.ok {
			t.Errorf("p%d of %d samples: reportable=%v, want %v", c.p, c.n, ok, c.ok)
		}
	}
}

// The unit summary takes each unit's median over passes, floors it, and
// weighs units alike whatever their size.
func TestUnitGmean(t *testing.T) {
	units := map[string][]float64{
		"big":   {400, 100, 100}, // median 100
		"small": {1, 4, 1},       // median 1
		"empty": {0.001, 0.002},  // floored to 1 ms
	}
	if got, want := unitGmean(units), math.Cbrt(100*1*1); !near(got, want) {
		t.Errorf("unitGmean = %v, want %v", got, want)
	}
	units["big"] = []float64{200, 200, 200}
	if got, want := unitGmean(units), math.Cbrt(200*1*1); !near(got, want) {
		t.Errorf("doubling one unit of three: unitGmean = %v, want %v", got, want)
	}
}

func TestLayerOf(t *testing.T) {
	for _, c := range []struct {
		stack []string // innermost first
		want  string
	}{
		// The innermost repository frame decides; stdlib is charged to it.
		{[]string{"runtime.memmove", "ctbia/internal/cache.(*Cache).findIn", "ctbia/internal/cpu.(*Machine).Load64", "ctbia/internal/workloads.Histogram.Run"}, "cache"},
		{[]string{"ctbia/internal/cpu.(*Machine).Op", "ctbia/internal/ct.Linear.Load"}, "cpu"},
		{[]string{"ctbia/internal/workloads.Histogram.Run.func1", "ctbia/internal/harness.runDirect"}, "workloads"},
		{[]string{"ctbia/internal/ctcrypto.(*simEnv).pld", "ctbia/internal/ctcrypto.AES.Run"}, "workloads"},
		// Anything under a Reference function is the reference check.
		{[]string{"sort.Ints", "ctbia/internal/workloads.shortestPaths", "ctbia/internal/workloads.(*Dijkstra).Reference", "ctbia/internal/harness.runTraced"}, "reference"},
		{[]string{"ctbia/internal/ctcrypto.AES.Reference.func2", "ctbia/internal/harness.tryReplay"}, "reference"},
		// The collector and the allocator win over every other rule.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ctbia/internal/cpu.New"}, "runtime_gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{[]string{"runtime.mallocgcSmallNoscan", "runtime.mallocgc", "ctbia/internal/workloads.Histogram.Reference"}, "runtime_gc"},
		// Function rules split packages.
		{[]string{"ctbia/internal/trace.(*Recorder).Access", "ctbia/internal/cpu.(*Machine).Load64"}, "trace_record"},
		{[]string{"ctbia/internal/trace.(*Reader).Next", "ctbia/internal/cpu.ExecTraceFanoutReader"}, "trace_codec"},
		{[]string{"syscall.Syscall", "os.ReadFile", "ctbia/internal/harness.lookupTrace"}, "trace_codec"},
		{[]string{"ctbia/internal/harness.workloadTraceKey", "ctbia/internal/harness.RunWorkload"}, "harness"},
		{[]string{"ctbia/internal/harness.(*Manifest).Record", "ctbia/internal/harness.RunAll.func1"}, "sinks"},
		{[]string{"ctbia/internal/resultcache.(*Store).Save"}, "sinks"},
		{[]string{"ctbia/internal/obs.(*Shard).Add[go.shape.*ctbia/internal/cpu.Machine]"}, "sinks"},
		// HTTP without a repository frame is the fleet's server or client.
		{[]string{"encoding/json.Marshal", "ctbia/internal/fleet.(*Worker).post"}, "fleet"},
		{[]string{"syscall.Syscall", "net/http.(*conn).serve"}, "fleet"},
		{[]string{"runtime.findRunnable", "runtime.schedule"}, "other"},
		{nil, "other"},
	} {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// protoBuf is a minimal protobuf writer for building synthetic profiles.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) varint(num int, v uint64) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	b.Write(binary.AppendUvarint(nil, v))
}

func (b *protoBuf) bytesField(num int, p []byte) {
	b.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	b.Write(binary.AppendUvarint(nil, uint64(len(p))))
	b.Write(p)
}

func (b *protoBuf) packed(num int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	b.bytesField(num, p)
}

// TestFoldProfile folds a synthetic gzipped profile.proto: inlined
// frames inside one location, packed and unpacked location lists, and
// per-layer CPU nanoseconds.
func TestFoldProfile(t *testing.T) {
	var p protoBuf
	p.bytesField(1, nil) // sample_type: samples/count
	p.bytesField(1, nil) // sample_type: cpu/nanoseconds
	sample := func(ns uint64, packed bool, locs ...uint64) {
		var s protoBuf
		if packed {
			s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.packed(2, 1, ns)
		p.bytesField(2, s.Bytes())
	}
	sample(10_000_000, true, 1, 3)  // memmove inlined into findIn, under Run
	sample(20_000_000, false, 2, 3) // mallocgc under Run
	sample(30_000_000, true, 4)     // scheduler
	location := func(id uint64, fns ...uint64) {
		var l protoBuf
		l.varint(1, id)
		for _, f := range fns {
			var line protoBuf
			line.varint(1, f)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	location(1, 1, 2) // runtime.memmove inlined into cache.findIn
	location(2, 3)
	location(3, 4)
	location(4, 5)
	names := []string{"", "runtime.memmove", "ctbia/internal/cache.(*Cache).findIn", "runtime.mallocgc",
		"ctbia/internal/workloads.Histogram.Run", "runtime.findRunnable"}
	for id := 1; id < len(names); id++ {
		var f protoBuf
		f.varint(1, uint64(id))
		f.varint(2, uint64(id))
		p.bytesField(5, f.Bytes())
	}
	for _, s := range names {
		p.bytesField(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(p.Bytes())
	zw.Close()

	lp, err := foldProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"cache": 10_000_000, "runtime_gc": 20_000_000, "other": 30_000_000}
	if lp.Samples != 3 || len(lp.CPU) != len(want) {
		t.Fatalf("fold = %+v, want 3 samples over %v", lp, want)
	}
	for l, ns := range want {
		if lp.CPU[l] != ns {
			t.Errorf("layer %s = %d ns, want %d", l, lp.CPU[l], ns)
		}
	}
	if _, err := foldProfile(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile folded without error")
	}
}

// A table that renders differently from the set-up pass fails its unit,
// and a suite digest that differs from another workload's fails the run.
func TestDoctoredTableFailsRun(t *testing.T) {
	table := func(cell string) *harness.Table {
		return &harness.Table{ID: "fig7a", Headers: []string{"workload", "CT"}, Rows: [][]string{{"dij_32", cell}}}
	}
	pass := func(cell string) passResult {
		e := harness.Experiment{ID: "fig7a"}
		return passResult{Units: experimentUnits([]harness.Result{
			{Experiment: e, Table: table(cell), Wall: time.Millisecond},
			{Experiment: harness.Experiment{ID: "fig8"}, Table: &harness.Table{ID: "fig8", Headers: []string{"x"}}},
		})}
	}
	var ck checker
	ck.check(pass("3.10x"))
	ck.check(pass("3.10x"))
	if ck.failed != 0 {
		t.Fatalf("identical passes failed %d units", ck.failed)
	}
	ck.check(pass("3.11x"))
	if ck.attempted != 6 || ck.failed != 1 {
		t.Fatalf("doctored pass: attempted=%d failed=%d, want 6 and 1", ck.attempted, ck.failed)
	}

	path := filepath.Join(t.TempDir(), "digests", "suite")
	if err := matchDigest(path, "aa"); err != nil {
		t.Fatal(err)
	}
	if err := matchDigest(path, "aa"); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := matchDigest(path, "bb"); err == nil {
		t.Error("a differing suite digest was accepted")
	}
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares.
func declaredMetrics(t *testing.T) (endToEnd, perLayer map[string]string) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range decl.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestSmoke runs every workload at Quick scale, untraced and traced,
// through the same parent and child processes a real run uses, and
// checks the output contract: every declared metric printed with its
// unit, no failed unit, and one table digest across the suite workloads.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts child processes that simulate")
	}
	endToEnd, perLayer := declaredMetrics(t)
	t.Setenv("TMPDIR", t.TempDir())
	digests := map[string]string{}
	for _, w := range catalogue {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			var out, errOut bytes.Buffer
			args := []string{"--workload", w.name, "--quick", "--seconds", "0.2", "--trace", []string{"0", "1"}[trace]}
			if code := run(args, &out, &errOut); code != 0 {
				t.Fatalf("%s trace=%d: exit %d\n%s", w.name, trace, code, errOut.String())
			}
			var res result
			var last string
			sc := bufio.NewScanner(&out)
			for sc.Scan() {
				last = sc.Text()
				if _, d, ok := strings.Cut(last, " sim.digest="); ok {
					digests[w.name] = d
				}
			}
			if err := json.Unmarshal([]byte(last), &res); err != nil {
				t.Fatalf("%s trace=%d: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics printed, %d declared", w.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				if m, ok := res.Metrics[name]; !ok || m.Unit != unit || math.IsNaN(m.Value) {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.name, trace, name, m, unit)
				}
			}
		}
	}
	if d := digests["suite-direct"]; d == "" || digests["suite-traced"] != d || digests["fleet-sweep"] != d {
		t.Errorf("suite digests disagree: %v", digests)
	}
}
