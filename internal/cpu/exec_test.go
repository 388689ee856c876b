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
// time: from the second repeat on, the L1's residency memo charges it
// in closed form, checking one memo slot per page (8 here).
// BenchmarkSweepAlternating alternates between two resident runs that
// together fill the L1 under a mode that updates LRU state, which the
// closed form never serves, so it times the per-line all-hit path and
// its memo recording. BenchmarkSweepSnooped is Alg. 3's fetch loop on a
// BIA-in-L1 machine: dirty resident runs split around a target line
// that moves every call, charged in closed form with the BIA taking
// each run in one call. BenchmarkSweepScalar runs the per-line loop the
// primitive replaced over the same lines. All fail on an allocation.
func BenchmarkSweepPrimitive(b *testing.B) {
	benchSweep(b, noBIAConfig(), 0, func(m *Machine) {
		m.SweepRMW(0, memp.LineSize, sweepLines, 7, ModeNoLRU|ModeStreaming)
	})
}

func BenchmarkSweepAlternating(b *testing.B) {
	var base memp.Addr
	benchSweep(b, noBIAConfig(), 0, func(m *Machine) {
		base ^= sweepLines * memp.LineSize
		m.SweepRMW(base, memp.LineSize, sweepLines, 7, ModeStreaming)
	})
}

func BenchmarkSweepSnooped(b *testing.B) {
	cfg := DefaultConfig()
	cfg.BIALevel = 1
	target := 0
	benchSweep(b, cfg, 0, func(m *Machine) {
		if m.C.CTLoads == 0 {
			// Install the DS pages' BIA entries, so the runs' hits land.
			for p := 0; p < sweepLines*memp.LineSize; p += memp.PageSize {
				m.CTLoad64(memp.Addr(p))
			}
		}
		target = (target + 1) % sweepLines
		m.SweepRMW(0, memp.LineSize, target, 7, ModeNoLRU|ModeStreaming)
		m.SweepRMW(memp.Addr((target+1)*memp.LineSize), memp.LineSize, sweepLines-target-1, 7, ModeNoLRU|ModeStreaming)
	})
}

func BenchmarkSweepScalar(b *testing.B) {
	benchSweep(b, noBIAConfig(), 0, func(m *Machine) {
		scalarSweep(m, sweepCall{stride: memp.LineSize, n: sweepLines, pre: 7, mode: ModeNoLRU | ModeStreaming, rmw: true})
	})
}

// thrashLines is the DS BenchmarkSweepThrash sweeps: 80 KiB, more than
// the Table 1 L1's 64 KiB and far less than its 1 MiB L2.
const thrashLines = 80 << 10 / memp.LineSize

// dramPages is the DS BenchmarkSweepThrash's pages-dram-bia sweeps: 32
// MiB of pages, twice the Table 1 LLC.
const dramPages = 32 << 20 / memp.PageSize

// BenchmarkSweepThrash times sweeps that thrash the L1: every line of
// the DS misses the L1 and hits the L2, as in software CT over Fig. 2's
// and Fig. 7's larger DSes. load and rmw sweep the whole DS per op on
// an unsnooped Table 1 machine, which after the first sweeps note the
// DS in the L2's memo; the batch pass serves their misses from it.
// pages and pages-bia sweep one 64-line page run of it per op, Alg. 2's
// fetch runs: shorter than the L1's 128 sets, each set they visit is
// read by one scan, and with the BIA at the L1 every miss's victim
// eviction and fill reach it through the batch port. pages-dram-bia
// sweeps page runs of a DS twice the LLC with the BIA at the L1, each
// page's entry installed first, so every line misses every level and
// fills each from DRAM, as threshold's and replacement's fetch runs do.
// Each reports ns a line.
func BenchmarkSweepThrash(b *testing.B) {
	const mode = ModeNoLRU | ModeStreaming
	page := 0
	pageRun := func(m *Machine) {
		if m.BIA != nil && m.C.CTLoads == 0 {
			// Install the DS pages' BIA entries, so the snoops land.
			for p := 0; p < thrashLines*memp.LineSize; p += memp.PageSize {
				m.CTLoad64(memp.Addr(p))
			}
		}
		page = (page + 1) % (thrashLines / 64)
		m.SweepLoad(memp.Addr(page*memp.PageSize), memp.LineSize, 64, 6, mode)
	}
	dramPage := 0
	dramRun := func(m *Machine) {
		dramPage = (dramPage + 1) % dramPages
		a := memp.Addr(dramPage * memp.PageSize)
		m.BIA.LookupOrInstall(a)
		m.SweepLoad(a, memp.LineSize, 64, 6, mode)
	}
	for _, bc := range []struct {
		name  string
		cfg   Config
		lines int
		sweep func(*Machine)
	}{
		{"load", noBIAConfig(), thrashLines, func(m *Machine) { m.SweepLoad(0, memp.LineSize, thrashLines, 6, mode) }},
		{"rmw", noBIAConfig(), thrashLines, func(m *Machine) { m.SweepRMW(0, memp.LineSize, thrashLines, 7, mode) }},
		{"pages", noBIAConfig(), 64, pageRun},
		{"pages-bia", DefaultConfig(), 64, pageRun}, // the BIA at the L1
		{"pages-dram-bia", DefaultConfig(), 64, dramRun},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Three passes over the DS note it in the L2's memo.
			benchSweep(b, bc.cfg, 3*thrashLines/bc.lines, bc.sweep)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.lines), "ns/line")
		})
	}
}

// benchSweep times sweep on a machine built from cfg, after warm
// untimed calls, and fails if a call allocates.
func benchSweep(b *testing.B, cfg Config, warm int, sweep func(*Machine)) {
	m := New(cfg)
	for range warm {
		sweep(m)
	}
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
