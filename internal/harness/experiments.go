package harness

import (
	"fmt"

	"ctbia/internal/attacker"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

func init() {
	register(Experiment{
		ID:    "config",
		Title: "Table 1: simulated machine configuration",
		Paper: "DerivO3CPU; L1d 64KB @2cyc; L2 1MB @15cyc; LLC 16MB @41cyc; BIA 1KB @1cyc in L1d/L2",
		Run:   runConfig,
	})
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: benchmark programs and their leakage",
		Paper: "five Ghostrider programs with data-dependent access patterns",
		Run:   runTable2,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Fig. 2: Histogram overhead vs dataflow-linearization-set size (software CT)",
		Paper: "overhead ~2x at size 1k growing to ~50x at 10k; avx2 reduces instructions but not cache traffic",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "motivation",
		Title: "Sec. 3.1 table: cache profile of Histogram 10k (origin vs secure vs secure+avx)",
		Paper: "origin 142k L1d/511k L1i; secure 18.9M L1d/138M L1i; avx 19.0M L1d/83M L1i; LL misses flat",
		Run:   runMotivation,
	})
	register(Experiment{
		ID:    "fig7a",
		Title: "Fig. 7(a): dijkstra execution-time overhead",
		Paper: "CT grows to ~10x; BIA small; L2 BIA beats L1d BIA at dij_128 only (DS=64KB self-evicts L1)",
		Run:   fig7("fig7a", workloads.Dijkstra{}, []int{32, 64, 96, 128}, []int{32, 48}),
	})
	register(Experiment{
		ID:    "fig7b",
		Title: "Fig. 7(b): histogram execution-time overhead",
		Paper: "CT up to ~45x at 8k; L1d/L2 BIA stay far lower",
		Run:   fig7("fig7b", workloads.Histogram{}, []int{1000, 2000, 4000, 6000, 8000}, []int{500, 1000}),
	})
	register(Experiment{
		ID:    "fig7c",
		Title: "Fig. 7(c): permutation execution-time overhead",
		Paper: "CT up to ~25x at 8k; BIA far lower",
		Run:   fig7("fig7c", workloads.Permutation{}, []int{1000, 2000, 4000, 6000, 8000}, []int{500, 1000}),
	})
	register(Experiment{
		ID:    "fig7d",
		Title: "Fig. 7(d): binary search execution-time overhead",
		Paper: "CT up to ~60x at 10k; BIA far lower",
		Run:   fig7("fig7d", workloads.BinarySearch{}, []int{2000, 4000, 6000, 8000, 10000}, []int{1000, 2000}),
	})
	register(Experiment{
		ID:    "fig7e",
		Title: "Fig. 7(e): heappop execution-time overhead",
		Paper: "CT up to ~30x at 10k; BIA far lower",
		Run:   fig7("fig7e", workloads.Heappop{}, []int{2000, 4000, 6000, 8000, 10000}, []int{1000, 2000}),
	})
	register(Experiment{
		ID:    "fig8",
		Title: "Fig. 8: overhead-reduction ratio of software CT over L1d BIA (dijkstra)",
		Paper: "insts/icache/dcache/exec-time ratios well above 1 (up to ~9x); DRAM ratio ≈ 1",
		Run:   runFig8,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Fig. 9: crypto-library execution-time overhead (L1d BIA vs software CT)",
		Paper: "CT slightly ahead of BIA for small-DS kernels; BIA clearly ahead on Blowfish (table-heavy setup)",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Fig. 10: per-cache-set access counts across 10 random secrets (hist_1k)",
		Paper: "insecure counts vary with the secret; protected counts identical across all samples",
		Run:   runFig10,
	})
}

func runConfig(o Options) *Table {
	t := &Table{ID: "config", Title: "simulated machine configuration (paper Table 1)",
		Headers: []string{"component", "parameter"}}
	cfg := cpu.DefaultConfig()
	t.AddRow("CPU", "in-order cost model, streaming sweeps pipelined (see DESIGN.md)")
	for _, lvl := range cfg.Levels {
		t.AddRow(lvl.Name, fmt.Sprintf("%d KB, %d-way, %d cycles latency, %s",
			lvl.Size>>10, lvl.Ways, lvl.Latency, lvl.Policy))
	}
	t.AddRow("DRAM", fmt.Sprintf("%d cycles latency", cfg.DRAMLatency))
	t.AddRow("BIA", fmt.Sprintf("in L1d/L2 cache, %d KB (%d entries x 16 B), %d cycle latency",
		cfg.BIA.Entries*16>>10, cfg.BIA.Entries, cfg.BIA.Latency))
	return t
}

func runTable2(o Options) *Table {
	t := &Table{ID: "table2", Title: "benchmark programs (paper Table 2)",
		Headers: []string{"program", "leakage", "size of DS"}}
	for _, w := range workloads.All() {
		t.AddRow(w.Name(), w.Leakage(), w.DSDescription())
	}
	return t
}

func runFig2(o Options) *Table {
	sizes := []int{1000, 2000, 4000, 6000, 8000, 10000}
	if o.Quick {
		sizes = []int{500, 1000}
	}
	t := &Table{ID: "fig2", Title: "Histogram CT overhead vs input size",
		Headers: []string{"size", "DS lines", "secure", "secure with avx"}}
	w := workloads.Histogram{}
	t.addRows(o.Parallel, sprintEach("hist_%d", sizes), func(i int) []string {
		p := workloads.Params{Size: sizes[i], Seed: 1}
		ins := RunWorkload(w, p, ct.Direct{}, 0)
		lin := RunWorkload(w, p, ct.Linear{}, 0)
		vec := RunWorkload(w, p, ct.LinearVec{}, 0)
		return []string{fmt.Sprintf("%d", w.DSLines(p)),
			ratio(lin.Cycles, ins.Cycles),
			ratio(vec.Cycles, ins.Cycles)}
	})
	t.Notes = append(t.Notes, "overhead = cycles / insecure cycles; grows ~linearly with DS size as in the paper")
	return t
}

func runMotivation(o Options) *Table {
	size := 10000
	if o.Quick {
		size = 2000
	}
	p := workloads.Params{Size: size, Seed: 1}
	w := workloads.Histogram{}
	t := &Table{ID: "motivation",
		Title:   fmt.Sprintf("cache profile of Histogram %d", size),
		Headers: []string{"version", "L1d ref", "L1i ref", "LL misses", "cycles"}}
	for _, c := range []struct {
		name string
		s    ct.Strategy
	}{
		{"origin", ct.Direct{}},
		{"secure", ct.Linear{}},
		{"secure with avx", ct.LinearVec{}},
	} {
		r := RunWorkload(w, p, c.s, 0)
		t.AddRow(c.name, count(r.L1DRefs), count(r.L1IRefs), count(r.LLMisses), count(r.Cycles))
	}
	t.Notes = append(t.Notes,
		"LL misses are ~0 here because kernels are measured warm-start; the paper's point — the overhead is instruction and L1 traffic, not DRAM — holds identically")
	return t
}

// fig7Runs are the four runs behind one Fig. 7 point: the insecure
// baseline, the BIA in L1d and in L2, and software CT.
var fig7Runs = []struct {
	name  string
	s     ct.Strategy
	level int
}{
	{"insecure", ct.Direct{}, 0},
	{"bia@1", ct.BIA{}, 1},
	{"bia@2", ct.BIA{}, 2},
	{"ct", ct.Linear{}, 0},
}

// fig7 builds the runner for one Fig. 7 panel. Every (size, strategy)
// run is independent (each draws a cold machine), so all of them fan
// out across o.Parallel workers; a row is built from its size's runs in
// index order, keeping the table byte-identical to the serial run. A
// panicking run is recovered into a FAILED row for its size, and the
// other runs still measure.
func fig7(id string, w workloads.Workload, sizes, quick []int) func(Options) *Table {
	return func(o Options) *Table {
		ss := sizes
		if o.Quick {
			ss = quick
		}
		t := &Table{ID: id,
			Title:   fmt.Sprintf("%s execution-time overhead vs insecure baseline", w.Name()),
			Headers: []string{"workload", "L1d", "L2", "CT"}}
		n := len(fig7Runs)
		reps := make([]cpu.Report, len(ss)*n)
		errs := forEachIndexed(len(reps), o.Parallel, func(i int) {
			run := fig7Runs[i%n]
			sp := obs.StartSpan("strategy", run.name)
			defer sp.End()
			reps[i] = RunWorkload(w, workloads.Params{Size: ss[i/n], Seed: 1}, run.s, run.level)
		})
	rows:
		for j, size := range ss {
			label := fmt.Sprintf("%s_%d", shortName(w.Name()), size)
			for k := j * n; errs != nil && k < (j+1)*n; k++ {
				if pe := errs[k]; pe != nil {
					if pe.Strategy == "" {
						pe.Strategy = fig7Runs[k%n].name
					}
					t.Fail(label, pe)
					continue rows
				}
			}
			r := reps[j*n : (j+1)*n]
			t.AddRow(label,
				ratio(r[1].Cycles, r[0].Cycles),
				ratio(r[2].Cycles, r[0].Cycles),
				ratio(r[3].Cycles, r[0].Cycles))
		}
		return t
	}
}

func shortName(name string) string {
	switch name {
	case "dijkstra":
		return "dij"
	case "histogram":
		return "hist"
	case "permutation":
		return "perm"
	case "binarysearch":
		return "bin"
	case "heappop":
		return "heap"
	}
	return name
}

func runFig8(o Options) *Table {
	sizes := []int{32, 64, 96, 128}
	if o.Quick {
		sizes = []int{32, 48}
	}
	t := &Table{ID: "fig8",
		Title:   "overhead-reduction ratio (software CT / L1d BIA) for dijkstra",
		Headers: []string{"workload", "insts num", "icache", "dcache", "dram", "exec. time"}}
	w := workloads.Dijkstra{}
	for _, size := range sizes {
		p := workloads.Params{Size: size, Seed: 1}
		lin := RunWorkload(w, p, ct.Linear{}, 0)
		bia := RunWorkload(w, p, ct.BIA{}, 1)
		t.AddRow(fmt.Sprintf("dij_%d", size),
			ratio(lin.Insts, bia.Insts),
			ratio(lin.L1IRefs, bia.L1IRefs),
			ratio(lin.L1DRefs, bia.L1DRefs),
			ratio(lin.DRAM, bia.DRAM),
			ratio(lin.Cycles, bia.Cycles))
	}
	return t
}

func runFig9(o Options) *Table {
	blocks := 48
	if o.Quick {
		blocks = 8
	}
	t := &Table{ID: "fig9",
		Title:   fmt.Sprintf("crypto kernels (%d blocks incl. key setup): overhead vs insecure", blocks),
		Headers: []string{"kernel", "tables", "L1d", "CT"}}
	for _, k := range ctcrypto.All() {
		p := ctcrypto.Params{Blocks: blocks, Seed: 1}
		ins := RunKernel(k, p, ct.Direct{}, 0)
		bia := RunKernel(k, p, ct.BIA{}, 1)
		lin := RunKernel(k, p, ct.Linear{}, 0)
		t.AddRow(k.Name(),
			fmt.Sprintf("%dB", k.TableBytes()),
			ratio(bia.Cycles, ins.Cycles),
			ratio(lin.Cycles, ins.Cycles))
	}
	t.Notes = append(t.Notes,
		"small DSes favour software CT (BIA pays per-page pre/post-processing); Blowfish's key setup visits its DS ~33k times and flips the verdict, as in the paper")
	return t
}

func runFig10(o Options) *Table {
	size, samples := 1000, 10
	if o.Quick {
		size, samples = 500, 4
	}
	const window = 6
	t := &Table{ID: "fig10",
		Title: fmt.Sprintf("L1d per-set access counts, hist_%d, %d random secrets", size, samples)}
	w := workloads.Histogram{}
	var base int
	for _, v := range []struct {
		name, who string
		s         ct.Strategy
		biaLevel  int
		leak      bool
	}{{"insecure", "insecure", ct.Direct{}, 0, true}, {"bia", "protected", ct.BIA{}, 1, false}} {
		var first []uint64
		differ := false
		for s := 0; s < samples; s++ {
			p := workloads.Params{Size: size, Seed: int64(100 + s)}
			var counts []uint64
			// The paper instruments the cache the victim's demand traffic
			// lands in; with warm-start kernels that is the L1d (128 sets in
			// the Table 1 machine — the paper's 2048-set view is its L2).
			runPoint(tableConfig(v.biaLevel), fmt.Sprintf("fig10/%s/%d", v.name, p.Seed),
				func() uint64 { return w.Reference(p) },
				func(m *cpu.Machine) uint64 {
					sc := attacker.NewSetCounter(m.Hier, 1)
					sum := w.Run(m, v.s, p)
					base = m.Hier.Level(1).SetOf(m.Alloc.MustRegion("out").Base)
					counts = sc.Range(base, base+window)
					return sum
				})
			if s == 0 {
				first = counts
			}
			differ = differ || !attacker.Equal(counts, first)
			row := []string{fmt.Sprintf("%s #%d", v.name, s+1)}
			for _, c := range counts {
				row = append(row, count(c))
			}
			t.AddRow(row...)
		}
		t.Notes = append(t.Notes, fmt.Sprintf("%s counts differ across secrets: %v (leak expected: %v)", v.who, differ, v.leak))
	}
	t.Headers = []string{"sample"}
	for i := 0; i < window; i++ {
		t.Headers = append(t.Headers, fmt.Sprintf("set %d", base+i))
	}
	t.Notes = append(t.Notes,
		"window = the first 6 L1d sets of the out array (our address map differs from the paper's sets 320-325)")
	return t
}
