package harness

import (
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// runWorkloadAllocBudget bounds the allocations of one pooled
// RunWorkload call that replays its point from a trace file (file read,
// decode, machine from pool, replay, verification, report). Measured at
// 48 allocs/op for a software-CT histogram: opening, reading and
// decoding the file, the workload's own input setup, the config
// fingerprint that finds the machine's pool (11), and the group of
// one's pool, fingerprint and report slices and closures; the access
// path allocates nothing. The budget
// leaves headroom for small workload-side changes but fails loudly if
// pooling regresses (a machine rebuild alone is thousands of
// allocations).
const runWorkloadAllocBudget = 64

// measureRunWorkloadAllocs primes one point into a fresh trace
// directory and measures the RunWorkload calls that replay it from the
// file.
func measureRunWorkloadAllocs(tb testing.TB) float64 {
	useTraceDir(tb)
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	// Record the point's file and prime the pool so the measured runs
	// replay and recycle instead of recording and building.
	RunWorkload(w, p, ct.Linear{}, 0)
	allocs := testing.AllocsPerRun(5, func() {
		RunWorkload(w, p, ct.Linear{}, 0)
	})
	if rec, rep, _ := TraceStats(); rec != 1 || rep == 0 {
		tb.Fatalf("records=%d replays=%d, want 1 and >0: the measured runs must replay", rec, rep)
	}
	return allocs
}

func TestRunWorkloadAllocBudget(t *testing.T) {
	if allocs := measureRunWorkloadAllocs(t); allocs > runWorkloadAllocBudget {
		t.Errorf("RunWorkload: %.0f allocs/op, budget is %d — machine pooling regressed?",
			allocs, runWorkloadAllocBudget)
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
// experiment data point replayed from its trace file and fails when over
// the allocation budget.
func BenchmarkRunWorkloadAllocs(b *testing.B) {
	useTraceDir(b)
	w := workloads.Histogram{}
	p := workloads.Params{Size: 500, Seed: 1}
	RunWorkload(w, p, ct.Linear{}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		RunWorkload(w, p, ct.Linear{}, 0)
	}
	b.StopTimer()
	if allocs := measureRunWorkloadAllocs(b); allocs > runWorkloadAllocBudget {
		b.Fatalf("RunWorkload: %.0f allocs/op, budget is %d", allocs, runWorkloadAllocBudget)
	}
}
