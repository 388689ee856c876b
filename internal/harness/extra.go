package harness

import (
	"fmt"
	"slices"

	"ctbia/internal/attacker"
	"ctbia/internal/bia"
	"ctbia/internal/cache"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/memp"
	"ctbia/internal/workloads"
)

// The experiments in this file go beyond the paper's figures: they are
// ablations of the design choices the paper discusses in prose
// (Secs. 4.2, 6.1, 6.4, 6.5) plus sensitivity studies DESIGN.md calls
// out. All are runnable from cmd/ctbench and bench_test.go.

func init() {
	register(Experiment{
		ID:    "placement",
		Title: "ablation: BIA placement (L1d vs L2 vs LLC), Sec. 4.2/6.4",
		Paper: "placement trades probe latency against capacity pressure; L1d usually wins at these sizes",
		Run:   runPlacement,
	})
	register(Experiment{
		ID:    "threshold",
		Title: "ablation: Sec. 6.5 fetchset-size threshold (DS larger than L1d)",
		Paper: "bypassing the caches for huge fetchsets avoids thrashing when the DS exceeds the cache",
		Run:   runThreshold,
	})
	register(Experiment{
		ID:    "biasize",
		Title: "ablation: BIA capacity (entries) under a multi-page DS",
		Paper: "a BIA smaller than the working set of pages thrashes and degenerates to full linearization",
		Run:   runBIASize,
	})
	register(Experiment{
		ID:    "pinning",
		Title: "ablation: PLcache-style pinning vs BIA (Sec. 6.1 fairness)",
		Paper: "pinning is fast for the victim but steals cache from bystanders; BIA leaves the cache shared",
		Run:   runPinning,
	})
	register(Experiment{
		ID:    "llcbia",
		Title: "Sec. 6.4: LLC-resident BIA feasibility and slice-traffic secret-independence",
		Paper: "feasible iff LS_Hash > 6, with M = max(12, LS_Hash); slice traffic then leaks nothing",
		Run:   runLLCBIA,
	})
	register(Experiment{
		ID:    "replacement",
		Title: "ablation: replacement policy under DS pressure (LRU vs FIFO vs Random)",
		Paper: "Sec. 3.2: naive policies cause frequent capacity misses when the DS does not fit",
		Run:   runReplacement,
	})
}

func runPlacement(o Options) *Table {
	size := 4000
	if o.Quick {
		size = 1000
	}
	p := workloads.Params{Size: size, Seed: 1}
	w := workloads.Histogram{}
	ins := RunWorkload(w, p, ct.Direct{}, 0)
	t := &Table{ID: "placement",
		Title:   fmt.Sprintf("histogram_%d overhead by BIA placement", size),
		Headers: []string{"placement", "overhead", "L1d refs", "L2 refs", "LLC refs"}}
	for lvl := 1; lvl <= 3; lvl++ {
		r := RunWorkload(w, p, ct.BIA{}, lvl)
		name := []string{"", "L1d", "L2", "LLC"}[lvl]
		t.AddRow(name, ratio(r.Cycles, ins.Cycles), count(r.L1DRefs), count(r.L2Refs), count(r.LLCRefs))
	}
	return t
}

// smallCacheConfig is a deliberately tiny hierarchy (8 KB / 32 KB /
// 128 KB) for the ablations that need a DS bigger than EVERY cache
// level — the regime Sec. 6.5's threshold optimization targets. Using
// the Table 1 machine there would just park the DS in the 1 MB L2.
func smallCacheConfig(biaLevel int) cpu.Config {
	return cpu.Config{
		Levels: []cache.Config{
			{Name: "L1d", Size: 8 << 10, Ways: 8, Latency: 2},
			{Name: "L2", Size: 32 << 10, Ways: 8, Latency: 15},
			{Name: "LLC", Size: 128 << 10, Ways: 16, Latency: 41},
		},
		DRAMLatency: 200,
		BIA:         bia.DefaultConfig(),
		BIALevel:    biaLevel,
	}
}

func runThreshold(o Options) *Table {
	// DS of 256000 ints = 1 MB — 8x the small machine's LLC, so the
	// cyclic fetchset sweeps get almost no reuse: the cached path pays
	// L1+L2+LLC probe latency on top of DRAM on nearly every line and
	// churns millions of fills/evictions, while the threshold path
	// goes straight to DRAM and leaves the caches to the rest of the
	// program. Binary search carries the demonstration because its DS
	// traffic is load-only; a read-modify-write sweep (histogram's
	// store path) would instead pay two DRAM trips per line uncached
	// versus fill-then-hit cached, which is why the paper pairs the
	// optimization with the memory controller's write coalescing.
	size := 256000
	queries := 12
	if o.Quick {
		size, queries = 128000, 4
	}
	p := workloads.Params{Size: size, Seed: 1, Ops: queries}
	w := workloads.BinarySearch{}
	ins := RunWorkloadOn(smallCacheConfig(0), w, p, ct.Direct{})
	t := &Table{ID: "threshold",
		Title:   fmt.Sprintf("binarysearch_%d on an 8KB/32KB/128KB hierarchy (DS %d KB > LLC): Sec. 6.5 threshold", size, size*4>>10),
		Headers: []string{"strategy", "overhead", "cycles", "fills+evictions (L1d)", "DRAM accesses"}}
	strats := []ct.Strategy{ct.BIA{}, ct.BIA{Threshold: 32}}
	t.addRows(o.Parallel, []string{"bia (no threshold)", "bia threshold=32"}, func(i int) []string {
		var l1 cache.Stats
		r := runPoint(smallCacheConfig(1), "threshold/"+strats[i].Name(),
			func() uint64 { return w.Reference(p) },
			func(m *cpu.Machine) uint64 {
				sum := w.Run(m, strats[i], p)
				l1 = m.Hier.Level(1).Stats
				return sum
			})
		return []string{ratio(r.Cycles, ins.Cycles), count(r.Cycles),
			count(l1.Fills + l1.Evictions), count(r.DRAM)}
	})
	t.Notes = append(t.Notes,
		"the threshold path wins on latency (no L1/L2/LLC probe stack before DRAM) and eliminates the fill/eviction churn entirely")
	return t
}

func runBIASize(o Options) *Table {
	size := 8000 // 8-page DS
	if o.Quick {
		size = 4000
	}
	p := workloads.Params{Size: size, Seed: 1}
	w := workloads.Histogram{}
	ins := RunWorkload(w, p, ct.Direct{}, 0)
	t := &Table{ID: "biasize",
		Title:   fmt.Sprintf("histogram_%d overhead vs BIA capacity", size),
		Headers: []string{"BIA entries", "overhead", "BIA hit rate"}}
	entries := []int{2, 4, 8, 16, 64}
	t.addRows(o.Parallel, sprintEach("%d", entries), func(i int) []string {
		cfg := tableConfig(1)
		cfg.BIA = bia.Config{Entries: entries[i], Ways: min(entries[i], 4), Latency: 1}
		hitRate := "n/a"
		r := runPoint(cfg, fmt.Sprintf("biasize/%d", entries[i]),
			func() uint64 { return w.Reference(p) },
			func(m *cpu.Machine) uint64 {
				sum := w.Run(m, ct.BIA{}, p)
				if l := m.BIA.Stats.Lookups; l > 0 {
					hitRate = fmt.Sprintf("%.1f%%", 100*float64(m.BIA.Stats.Hits)/float64(l))
				}
				return sum
			})
		return []string{ratio(r.Cycles, ins.Cycles), hitRate}
	})
	return t
}

// runPinning compares PLcache-style preload+lock against the BIA on two
// axes: the victim's own overhead and the collateral damage to a
// bystander process sharing the L1d (the paper's Sec. 6.1 fairness
// argument).
func runPinning(o Options) *Table {
	size := 8000 // 500-line DS: half the L1d when pinned
	if o.Quick {
		size = 4000
	}
	t := &Table{ID: "pinning",
		Title:   fmt.Sprintf("PLcache-style pinning vs BIA (histogram_%d + bystander)", size),
		Headers: []string{"config", "victim overhead", "bystander L1d miss rate"}}

	bystander := func(m *cpu.Machine) float64 {
		// A bystander streaming over a 48 KB working set, sharing L1d.
		reg := m.Alloc.Alloc("bystander", 48<<10)
		before := m.Hier.Level(1).Stats
		for pass := 0; pass < 4; pass++ {
			for off := uint64(0); off < reg.Size; off += memp.LineSize {
				m.Hier.Access(reg.Base+memp.Addr(off), 0)
			}
		}
		after := m.Hier.Level(1).Stats
		acc := after.Accesses - before.Accesses
		miss := after.Misses - before.Misses
		return 100 * float64(miss) / float64(acc)
	}

	p := workloads.Params{Size: size, Seed: 1}
	w := workloads.Histogram{}
	ins := RunWorkload(w, p, ct.Direct{}, 0)

	// victim runs the histogram under s on a Table 1 machine at
	// biaLevel that prepare has readied, then the bystander on the same
	// machine. The bystander's accesses go straight to the hierarchy and
	// cost the victim no cycles.
	victim := func(label string, biaLevel int, s ct.Strategy, prepare func(m *cpu.Machine)) []string {
		var missRate float64
		r := runPoint(tableConfig(biaLevel), label,
			func() uint64 { return w.Reference(p) },
			func(m *cpu.Machine) uint64 {
				prepare(m)
				sum := w.Run(m, s, p)
				missRate = bystander(m)
				return sum
			})
		return []string{ratio(r.Cycles, ins.Cycles), fmt.Sprintf("%.1f%%", missRate)}
	}
	// PLcache model: preload the DS and pin it in L1, then run the
	// *insecure* access pattern (pinned lines can never miss, so the
	// address sequence is hidden from eviction-based attackers — but
	// note the paper's caveat: dirty/LRU metadata still leaks, and the
	// pins squat on the cache). Run allocates its regions itself, so a
	// first run learns where "out" lands; Reset then restores the cold
	// machine, whose next run allocates the same addresses.
	pin := func(m *cpu.Machine) {
		w.Run(m, ct.Direct{}, p)
		outReg := m.Alloc.MustRegion("out")
		m.Reset()
		for off := uint64(0); off < outReg.Size; off += memp.LineSize {
			a := outReg.Base + memp.Addr(off)
			m.Hier.Access(a, 0)
			m.Hier.Level(1).Pin(a)
		}
	}
	t.addRows(o.Parallel, []string{"PLcache (preload+pin)", "BIA (L1d)"}, func(i int) []string {
		if i == 0 {
			return victim("pinning/plcache", 0, ct.Direct{}, pin)
		}
		return victim("pinning/bia", 1, ct.BIA{}, func(*cpu.Machine) {})
	})
	t.Notes = append(t.Notes,
		"PLcache leaves replacement/dirty metadata observable and cannot release its pins across context switches (Sec. 6.1); the miss-rate column shows its fairness cost")
	return t
}

func runLLCBIA(o Options) *Table {
	t := &Table{ID: "llcbia",
		Title:   "LLC-resident BIA: Sec. 6.4 feasibility rule + slice-traffic independence",
		Headers: []string{"case", "result"}}
	for _, lsHash := range []int{6, 9, 12, 14} {
		m, ok := bia.LLCPlacement(lsHash)
		if ok {
			t.AddRow(fmt.Sprintf("LS_Hash=%d", lsHash), fmt.Sprintf("feasible, M=%d", m))
		} else {
			t.AddRow(fmt.Sprintf("LS_Hash=%d", lsHash), "infeasible (lines interleave across slices)")
		}
	}

	// Slice-traffic independence: 4-slice LLCs with two different
	// hash positions, LLC-resident BIA at the matching management
	// granularity M, two different secrets — identical per-slice
	// traffic in both cases.
	size := 2000
	if o.Quick {
		size = 800
	}
	w := workloads.Histogram{}
	for _, lsHash := range []int{12, 9} {
		mGran, _ := bia.LLCPlacement(lsHash)
		var traffic [2][]uint64
		name := fmt.Sprintf("LS_Hash=%d (M=%d) traffic secret ", lsHash, mGran)
		if t.addRows(o.Parallel, []string{name + "A", name + "B"}, func(i int) []string {
			p := workloads.Params{Size: size, Seed: int64(i + 1)}
			runPoint(slicedLLCConfig(lsHash, mGran), fmt.Sprintf("llcbia/LS_Hash=%d/%d", lsHash, p.Seed),
				func() uint64 { return w.Reference(p) },
				func(m *cpu.Machine) uint64 {
					sum := w.Run(m, ct.BIA{}, p)
					traffic[i] = slices.Clone(m.Hier.LLC().SliceTraffic)
					return sum
				})
			return []string{fmt.Sprintf("%v", traffic[i])}
		}) {
			t.AddRow(fmt.Sprintf("LS_Hash=%d identical", lsHash), fmt.Sprintf("%v", attacker.Equal(traffic[0], traffic[1])))
		}
	}
	return t
}

// slicedLLCConfig is the Table 1 machine with a 4-slice LLC hashed at
// address bit lsHash and the BIA in the LLC at granularity mGran.
// Fingerprint cannot see the SliceHash function, so pools tell llcbia's
// two configs apart by mGran alone (12 and 9).
func slicedLLCConfig(lsHash, mGran int) cpu.Config {
	cfg := cpu.DefaultConfig()
	cfg.Levels[2].Slices = 4
	cfg.Levels[2].SliceHash = func(a memp.Addr) int { return int((uint64(a) >> uint(lsHash)) & 3) }
	cfg.BIALevel = 3
	cfg.BIA.ChunkShift = mGran
	return cfg
}

func runReplacement(o Options) *Table {
	// DS (47 KB) larger than the small machine's L1d and L2:
	// replacement policy matters during the cyclic DS sweeps
	// (Sec. 3.2: "with some naive cache replacement policies (e.g.,
	// LRU), frequent capacity misses can happen").
	size := 12000
	elems := 800
	if o.Quick {
		size, elems = 6000, 200
	}
	p := workloads.Params{Size: size, Seed: 1, Ops: elems}
	w := workloads.Histogram{}
	t := &Table{ID: "replacement",
		Title:   fmt.Sprintf("histogram_%d on the small hierarchy under different L1d replacement policies", size),
		Headers: []string{"policy", "bia cycles", "L1d miss rate"}}
	policies := []cache.Policy{cache.LRU, cache.FIFO, cache.Random}
	t.addRows(o.Parallel, sprintEach("%v", policies), func(i int) []string {
		cfg := smallCacheConfig(1)
		cfg.Levels[0].Policy = policies[i]
		var l1 cache.Stats
		r := runPoint(cfg, fmt.Sprintf("replacement/%v", policies[i]),
			func() uint64 { return w.Reference(p) },
			func(m *cpu.Machine) uint64 {
				sum := w.Run(m, ct.BIA{}, p)
				l1 = m.Hier.Level(1).Stats
				return sum
			})
		return []string{count(r.Cycles), fmt.Sprintf("%.1f%%", 100*float64(l1.Misses)/float64(l1.Accesses))}
	})
	t.Notes = append(t.Notes,
		"LRU and FIFO coincide exactly on a cyclic sweep (classic result); Random avoids pathological self-eviction")
	return t
}
