package ctbia_test

// One benchmark per table and figure in the paper's evaluation, plus
// ablation and micro benchmarks. The figure benchmarks execute the same
// experiment code cmd/ctbench prints, so `go test -bench .` regenerates
// every artifact; key ratios are attached as custom metrics. They run
// the default trace engine with no trace directory, which keeps no
// recording between calls: with b.N > 1 the iterations after the first
// simulate directly, as the first does, instead of replaying it.
//
// Run everything:   go test -bench . -benchmem
// One figure:       go test -bench BenchmarkFig7a

import (
	"strconv"
	"strings"
	"testing"

	"ctbia"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/harness"
	"ctbia/internal/memp"
	"ctbia/internal/workloads"
)

// benchExperiment runs a registered experiment once per iteration and
// reports the last row's ratio columns as metrics.
func benchExperiment(b *testing.B, id string) {
	e, err := harness.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var table = e.Run(harness.Options{Quick: testing.Short()})
	for i := 1; i < b.N; i++ {
		table = e.Run(harness.Options{Quick: testing.Short()})
	}
	// Attach the last row's ratio cells ("12.34x") as metrics.
	if len(table.Rows) > 0 {
		last := table.Rows[len(table.Rows)-1]
		for col, cell := range last {
			if strings.HasSuffix(cell, "x") {
				if v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64); err == nil {
					name := "row_" + strings.ReplaceAll(table.Headers[col], " ", "_")
					b.ReportMetric(v, name)
				}
			}
		}
	}
}

// --- Paper artifacts: one benchmark per table/figure ---

func BenchmarkTable1Config(b *testing.B)     { benchExperiment(b, "config") }
func BenchmarkTable2Programs(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig2Histogram(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkMotivationTable(b *testing.B)  { benchExperiment(b, "motivation") }
func BenchmarkFig7aDijkstra(b *testing.B)    { benchExperiment(b, "fig7a") }
func BenchmarkFig7bHistogram(b *testing.B)   { benchExperiment(b, "fig7b") }
func BenchmarkFig7cPermutation(b *testing.B) { benchExperiment(b, "fig7c") }
func BenchmarkFig7dBinSearch(b *testing.B)   { benchExperiment(b, "fig7d") }
func BenchmarkFig7eHeappop(b *testing.B)     { benchExperiment(b, "fig7e") }
func BenchmarkFig8Reduction(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9Crypto(b *testing.B)       { benchExperiment(b, "fig9") }
func BenchmarkFig10Security(b *testing.B)    { benchExperiment(b, "fig10") }

// --- Ablations (design choices called out in DESIGN.md) ---

func BenchmarkAblationPlacement(b *testing.B)   { benchExperiment(b, "placement") }
func BenchmarkAblationThreshold(b *testing.B)   { benchExperiment(b, "threshold") }
func BenchmarkAblationBIASize(b *testing.B)     { benchExperiment(b, "biasize") }
func BenchmarkAblationPinning(b *testing.B)     { benchExperiment(b, "pinning") }
func BenchmarkAblationLLCBIA(b *testing.B)      { benchExperiment(b, "llcbia") }
func BenchmarkAblationReplacement(b *testing.B) { benchExperiment(b, "replacement") }
func BenchmarkAblationContention(b *testing.B)  { benchExperiment(b, "contention") }
func BenchmarkCrossCoreAttack(b *testing.B)     { benchExperiment(b, "crosscore") }
func BenchmarkRelatedWork(b *testing.B)         { benchExperiment(b, "relatedwork") }

func BenchmarkWorkloadHistogramMacro(b *testing.B) {
	benchWorkload(b, workloads.Histogram{}, workloads.Params{Size: 2000, Seed: 1}, ct.BIAMacro{}, 1)
}

// --- Per-workload simulated-cycle benchmarks ---
// These report simulated cycles per run as a metric, so regressions in
// the model itself (not just host speed) are visible.

func benchWorkload(b *testing.B, w workloads.Workload, p workloads.Params, s ct.Strategy, biaLevel int) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := harness.RunWorkload(w, p, s, biaLevel)
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

func BenchmarkWorkloadHistogramBIA(b *testing.B) {
	benchWorkload(b, workloads.Histogram{}, workloads.Params{Size: 2000, Seed: 1}, ct.BIA{}, 1)
}

func BenchmarkWorkloadHistogramCT(b *testing.B) {
	benchWorkload(b, workloads.Histogram{}, workloads.Params{Size: 2000, Seed: 1}, ct.Linear{}, 0)
}

func BenchmarkWorkloadDijkstraBIA(b *testing.B) {
	benchWorkload(b, workloads.Dijkstra{}, workloads.Params{Size: 64, Seed: 1}, ct.BIA{}, 1)
}

func BenchmarkWorkloadBinSearchBIA(b *testing.B) {
	benchWorkload(b, workloads.BinarySearch{}, workloads.Params{Size: 4000, Seed: 1, Ops: 16}, ct.BIA{}, 1)
}

func BenchmarkWorkloadHeappopBIA(b *testing.B) {
	benchWorkload(b, workloads.Heappop{}, workloads.Params{Size: 4000, Seed: 1, Ops: 16}, ct.BIA{}, 1)
}

func BenchmarkWorkloadPermutationBIA(b *testing.B) {
	benchWorkload(b, workloads.Permutation{}, workloads.Params{Size: 2000, Seed: 1}, ct.BIA{}, 1)
}

func BenchmarkKernelAESBIA(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := harness.RunKernel(ctcrypto.AES{}, ctcrypto.Params{Blocks: 16, Seed: 1}, ct.BIA{}, 1)
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

func BenchmarkKernelBlowfishBIA(b *testing.B) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r := harness.RunKernel(ctcrypto.Blowfish{}, ctcrypto.Params{Blocks: 16, Seed: 1}, ct.BIA{}, 1)
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// BenchmarkFig7Point measures one sweep point of the Fig. 7 overhead
// curves — the same four-machine comparison (insecure, BIA-in-L1,
// BIA-in-L2, software CT) a fig7* experiment runs per size. This is the
// unit the parallel experiment engine fans out, so its host cost bounds
// the benefit of -parallel.
func BenchmarkFig7Point(b *testing.B) {
	w := workloads.Histogram{}
	p := workloads.Params{Size: 2000, Seed: 1}
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cycles = harness.RunWorkload(w, p, ct.Direct{}, 0).Cycles
		cycles += harness.RunWorkload(w, p, ct.BIA{}, 1).Cycles
		cycles += harness.RunWorkload(w, p, ct.BIA{}, 2).Cycles
		cycles += harness.RunWorkload(w, p, ct.Linear{}, 0).Cycles
	}
	b.ReportMetric(float64(cycles), "sim_cycles")
}

// --- Micro benchmarks: host cost of the simulator's primitives ---

func BenchmarkMicroInsecureLoad(b *testing.B) {
	sys := ctbia.NewDefaultSystem()
	a := sys.NewArray32("t", 4096, ctbia.Insecure)
	sys.Warm(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Load(i % a.Len())
	}
}

func BenchmarkMicroBIALoad(b *testing.B) {
	sys := ctbia.NewDefaultSystem()
	a := sys.NewArray32("t", 4096, ctbia.BIAAssisted)
	sys.Warm(a)
	a.Load(0) // converge the bitmap
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Load(i % a.Len())
	}
}

func BenchmarkMicroCTLoad(b *testing.B) {
	sys := ctbia.NewDefaultSystem()
	a := sys.NewArray32("t", 4096, ctbia.SoftwareCT)
	sys.Warm(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Load(i % a.Len())
	}
}

func BenchmarkMicroCTLoadMicroOp(b *testing.B) {
	m := cpu.NewDefault()
	reg := m.Alloc.Alloc("t", 4096)
	m.WarmRegion(reg.Base, reg.Size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CTLoad64(reg.Base + memp.Addr(i%64*64))
	}
}
