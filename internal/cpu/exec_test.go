package cpu

import (
	"testing"

	"ctbia/internal/bia"
	"ctbia/internal/cache"
	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

// The replay interpreter carries the same hard allocation budget as the
// direct access path: zero. A trace replays millions of records per
// experiment, so the loop may not touch the heap — neither record by
// record (BenchmarkReplayAccess) nor through the batched hierarchy walk
// (BenchmarkExecBatch). The benchmarks fail, not just report, when the
// budget breaks, and the plain test enforces it under `go test ./...`.

// noBIAConfig is the Table 1 machine without a BIA, and so without a
// listener.
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

// BenchmarkExecBatch drives the run records: the same sweep fused into
// them, each replayed through one Hierarchy.AccessBatch, which charges
// the LRU-updating loads access by access.
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
// closed form and the pass never serve, so it times all-hit
// load+store pairs charged access by access. BenchmarkSweepSnooped is Alg. 3's fetch loop on a
// BIA-in-L1 machine: dirty resident runs split around a target line
// that moves every call, charged in closed form with the BIA taking
// each run in one call. BenchmarkSweepScalar runs the scalar loop the
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
// eviction and fill reach it through the batch port. The rest sweep
// page runs with the BIA at the L1, each page's entry installed first,
// as threshold's and replacement's fetch runs do: pages-dram-bia over a
// DS twice the Table 1 LLC, and the small-* cases on the ablations'
// 8 KB/32 KB/128 KB machine, small-pages-dram-bia over threshold's
// 1 MB DS and small-rmw-* with read-modify-write runs over a 48 KB DS
// inside the LLC, replacement's, under an LRU and a Random L1. Their
// lines miss to the outer levels, which the outer step serves with one
// scan a level. Each reports ns a line.
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
	// pageRuns sweeps one page of a DS of pages pages per call, in turn,
	// its BIA entry installed first.
	pageRuns := func(pages int, rmw bool) func(*Machine) {
		page := 0
		return func(m *Machine) {
			page = (page + 1) % pages
			a := memp.Addr(page * memp.PageSize)
			m.BIA.LookupOrInstall(a)
			if rmw {
				m.SweepRMW(a, memp.LineSize, 64, 7, mode)
			} else {
				m.SweepLoad(a, memp.LineSize, 64, 6, mode)
			}
		}
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
		{"pages-dram-bia", DefaultConfig(), 64, pageRuns(dramPages, false)},
		{"small-pages-dram-bia", ablationConfig(cache.LRU), 64, pageRuns(1<<20/memp.PageSize, false)},
		{"small-rmw-pages", ablationConfig(cache.LRU), 64, pageRuns(48<<10/memp.PageSize, true)},
		{"small-rmw-pages-random", ablationConfig(cache.Random), 64, pageRuns(48<<10/memp.PageSize, true)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			// Three passes over the DS note it in the L2's memo.
			benchSweep(b, bc.cfg, 3*thrashLines/bc.lines, bc.sweep)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bc.lines), "ns/line")
		})
	}
}

// ablationConfig is the threshold and replacement ablations' machine, an
// 8 KB L1 under the given policy over a 32 KB L2 and a 128 KB LLC, with
// the BIA at the L1.
func ablationConfig(l1 cache.Policy) Config {
	return Config{
		Levels: []cache.Config{
			{Name: "L1d", Size: 8 << 10, Ways: 8, Latency: 2, Policy: l1},
			{Name: "L2", Size: 32 << 10, Ways: 8, Latency: 15},
			{Name: "LLC", Size: 128 << 10, Ways: 16, Latency: 41},
		},
		DRAMLatency: 200,
		BIA:         bia.DefaultConfig(),
		BIALevel:    1,
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
