package harness

import (
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// runWorkloadAllocBudget bounds the allocations of one pooled
// RunWorkload call (machine from pool, full workload simulation,
// verification, report). Measured at 14 allocs/op — the workload's own
// input setup (slices of test data) and the replay group's machine and
// report slices, not the access path, which is at zero. The budget leaves headroom for small workload-side changes but
// fails loudly if pooling regresses (a machine rebuild alone is
// thousands of allocations).
const runWorkloadAllocBudget = 64

func measureRunWorkloadAllocs() float64 {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	// Prime the pool so the measured runs recycle instead of build.
	RunWorkload(w, p, ct.BIA{}, 1)
	return testing.AllocsPerRun(5, func() {
		RunWorkload(w, p, ct.BIA{}, 1)
	})
}

func TestRunWorkloadAllocBudget(t *testing.T) {
	if allocs := measureRunWorkloadAllocs(); allocs > runWorkloadAllocBudget {
		t.Errorf("RunWorkload: %.0f allocs/op, budget is %d — machine pooling regressed?",
			allocs, runWorkloadAllocBudget)
	}
}

// streamingReplayAllocBudget bounds one warm streaming replay: a
// file-backed point served through Reader.Next (pooled chunk buffers)
// pays the file open and header decode, nothing per chunk. Measured at
// 11 allocs/op; the byte-level pin on the pooled buffers themselves
// lives in the trace package's TestReaderCycleAllocBudget.
const streamingReplayAllocBudget = 32

func TestStreamingReplayAllocBudget(t *testing.T) {
	dir := t.TempDir()
	if err := SetTraceDir(dir); err != nil {
		t.Fatal(err)
	}
	old := maxInlineTraceBytes
	t.Cleanup(func() {
		maxInlineTraceBytes = old
		SetTraceDir("")
		ResetTraces()
	})
	maxInlineTraceBytes = 1 // every trace goes to disk; replays stream
	ResetTraces()
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	RunWorkload(w, p, ct.Linear{}, 0) // record
	RunWorkload(w, p, ct.Linear{}, 0) // first replay anchors the report
	allocs := testing.AllocsPerRun(10, func() {
		RunWorkload(w, p, ct.Linear{}, 0)
	})
	if allocs > streamingReplayAllocBudget {
		t.Errorf("warm streaming replay: %.0f allocs/op, budget is %d — reader pooling regressed?",
			allocs, streamingReplayAllocBudget)
	}
}

// The harvest path a point takes when the registry is armed: once warm,
// feeding a machine's statistics into the registry allocates nothing
// beyond the names Machine.EmitMetrics itself builds, the point-wall
// histogram observes with zero allocations, and a snapshot into a warm
// map allocates nothing either.
func TestHarvestZeroAllocs(t *testing.T) {
	defer obsReset()
	obsReset()
	obs.Arm()
	m := cpu.NewDefault()
	harvest(m) // intern every name outside the measured loops
	names := testing.AllocsPerRun(100, func() { m.EmitMetrics(func(string, uint64) {}) })
	if n := testing.AllocsPerRun(100, func() { harvest(m) }); n != names {
		t.Errorf("harvest allocates %v/op, the emission alone %v/op", n, names)
	}
	pointWall.Observe(1)
	if n := testing.AllocsPerRun(1000, func() { pointWall.Observe(9) }); n != 0 {
		t.Errorf("armed Observe allocates %v/op", n)
	}
	dst := make(map[string]uint64)
	obs.SnapshotInto(dst)
	if n := testing.AllocsPerRun(100, func() { obs.SnapshotInto(dst) }); n != 0 {
		t.Errorf("SnapshotInto allocates %v/op on a warm map", n)
	}
}

// noteWorkerBusy used to format the slot's metric name per completed
// item; the interned handle path must not allocate once the slot has
// been seen.
func TestNoteWorkerBusyZeroAllocsWarm(t *testing.T) {
	defer obsReset()
	obsReset()
	obs.Arm()
	noteWorkerBusy(3, 1000) // intern the slot's name
	if n := testing.AllocsPerRun(1000, func() { noteWorkerBusy(3, 1000) }); n != 0 {
		t.Errorf("warm noteWorkerBusy allocates %v/op", n)
	}
}

// BenchmarkRunWorkloadAllocs tracks the end-to-end cost of one pooled
// experiment data point and fails when over the allocation budget.
func BenchmarkRunWorkloadAllocs(b *testing.B) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	RunWorkload(w, p, ct.BIA{}, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		RunWorkload(w, p, ct.BIA{}, 1)
	}
	b.StopTimer()
	if allocs := measureRunWorkloadAllocs(); allocs > runWorkloadAllocBudget {
		b.Fatalf("RunWorkload: %.0f allocs/op, budget is %d", allocs, runWorkloadAllocBudget)
	}
}
