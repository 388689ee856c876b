package cpu

import (
	"testing"

	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

// The replay interpreter carries the same hard allocation budget as the
// direct access path: zero. A trace replays millions of records per
// experiment, so the loop may not touch the heap — neither record by
// record (BenchmarkReplayAccess) nor through the batched hierarchy walk
// (BenchmarkExecBatch). The benchmarks fail, not just report, when the
// budget breaks, and the plain test enforces it under `go test ./...`.

// noBIAConfig is the machine the fast path serves: no BIA means no
// listeners, which is what lets whole runs take AccessBatch.
func noBIAConfig() Config {
	c := DefaultConfig()
	c.BIALevel = 0
	return c
}

// recordedSweep captures a strided load sweep on a scratch machine and
// returns its trace. singles=true defeats run fusion (alternating a
// no-fuse flag) so the trace is one record per access.
func recordedSweep(n int, singles bool) []trace.Op {
	m := New(noBIAConfig())
	rec := trace.NewRecorder(0)
	m.SetRecorder(rec)
	for i := 0; i < n; i++ {
		addr := memp.Addr(i*64) % accessSpan
		if singles && i&1 == 1 {
			// A different stride each pair: 64, then back-step.
			addr = memp.Addr((i-1)*64+8) % accessSpan
		}
		m.Load64(addr)
	}
	m.SetRecorder(nil)
	t, ok := rec.Take()
	if !ok {
		panic("recording sweep aborted")
	}
	return t.Ops
}

func TestExecTraceZeroAllocs(t *testing.T) {
	singles := recordedSweep(256, true)
	batched := recordedSweep(256, false)
	m := New(noBIAConfig())
	assertZeroAllocs(t, "ExecTrace(singles)",
		testing.AllocsPerRun(50, func() { m.ExecTrace(singles) }))
	assertZeroAllocs(t, "ExecTrace(batched)",
		testing.AllocsPerRun(50, func() { m.ExecTrace(batched) }))
}

// BenchmarkReplayAccess drives the per-record interpreter path: a trace
// of unfusable single accesses, replayed record by record.
func BenchmarkReplayAccess(b *testing.B) {
	ops := recordedSweep(4096, true)
	m := New(noBIAConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.ExecTrace(ops)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, func() { m.ExecTrace(ops) }); allocs != 0 {
		b.Fatalf("replay path allocates: %.1f allocs/op, budget is 0", allocs)
	}
}

// BenchmarkExecBatch drives the batched fast path: the same sweep fused
// into run records, replayed through Hierarchy.AccessBatch.
func BenchmarkExecBatch(b *testing.B) {
	ops := recordedSweep(4096, false)
	if len(ops) >= 4096 {
		b.Fatalf("sweep did not fuse: %d records", len(ops))
	}
	m := New(noBIAConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m.ExecTrace(ops)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, func() { m.ExecTrace(ops) }); allocs != 0 {
		b.Fatalf("batched replay allocates: %.1f allocs/op, budget is 0", allocs)
	}
}

// sweepLines is the DS the sweep benchmarks cover: 32 KiB, resident in
// the Table 1 L1 after the first pass, like most of the paper suite's
// DSs; the L1 hits are what the batch path charges in closed form.
const sweepLines = 512

// BenchmarkSweepPrimitive charges a linearized store's sweep the way the
// strategies do, one SweepRMW call, over the same resident run every
// time: from the second repeat on, the L1's remembered run charges it
// in closed form. BenchmarkSweepAlternating alternates between two
// resident runs that together fill the L1, which a one-run memory never
// serves, so it times the per-line all-hit path. BenchmarkSweepScalar
// runs the per-line loop the primitive replaced over the same lines.
// All fail on an allocation.
func BenchmarkSweepPrimitive(b *testing.B) {
	benchSweep(b, func(m *Machine) {
		m.SweepRMW(0, memp.LineSize, sweepLines, 7, ModeNoLRU|ModeStreaming)
	})
}

func BenchmarkSweepAlternating(b *testing.B) {
	var base memp.Addr
	benchSweep(b, func(m *Machine) {
		base ^= sweepLines * memp.LineSize
		m.SweepRMW(base, memp.LineSize, sweepLines, 7, ModeNoLRU|ModeStreaming)
	})
}

func BenchmarkSweepScalar(b *testing.B) {
	benchSweep(b, func(m *Machine) {
		scalarSweep(m, sweepCall{stride: memp.LineSize, n: sweepLines, pre: 7, mode: ModeNoLRU | ModeStreaming, rmw: true})
	})
}

func benchSweep(b *testing.B, sweep func(*Machine)) {
	m := New(noBIAConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		sweep(m)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(20, func() { sweep(m) }); allocs != 0 {
		b.Fatalf("sweep allocates: %.1f allocs/op, budget is 0", allocs)
	}
}
