package harness

import (
	"fmt"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/workloads"
)

// The related-work experiment lines up every mitigation this repository
// implements — including the paper's Sec. 8 comparison points — on one
// workload, measuring cost, the hardware budget each needs, and whether
// the defence survives an active evicting attacker.

func init() {
	register(Experiment{
		ID:    "relatedwork",
		Title: "comparison: all mitigations on one workload (cost / area / security)",
		Paper: "Sec. 8: preloading breaks under eviction; scratchpads need DS-sized area; BIA is 1 KiB and robust",
		Run:   runRelatedWork,
	})
}

func runRelatedWork(o Options) *Table {
	size := 4000
	if o.Quick {
		size = 1000
	}
	p := workloads.Params{Size: size, Seed: 1}
	w := workloads.Histogram{}
	ins := RunWorkload(w, p, ct.Direct{}, 0)
	dsBytes := size * 4

	t := &Table{ID: "relatedwork",
		Title:   fmt.Sprintf("histogram_%d under every implemented mitigation", size),
		Headers: []string{"mitigation", "overhead", "hw budget", "secure (quiet)", "secure (evicting attacker)"}}

	t.AddRow("insecure", "1.00x", "—", "no", "no")

	pre := RunWorkload(w, p, ct.Preload{}, 0)
	t.AddRow("preload (SC-Eliminator)", ratio(pre.Cycles, ins.Cycles), "—", "yes*", "NO — refills leak")

	// One corrupted scratchpad run costs its row, not the comparison.
	t.addRows(o.Parallel, []string{"scratchpad (GhostRider)"}, func(int) []string {
		r := runPoint(tableConfig(0), "relatedwork/scratchpad",
			func() uint64 { return w.Reference(p) },
			func(m *cpu.Machine) uint64 {
				return w.Run(m, ct.NewScratchpadStrategy(m.NewScratchpad(dsBytes+4096, 2)), p)
			})
		return []string{ratio(r.Cycles, ins.Cycles),
			fmt.Sprintf("%d KiB SRAM (DS-sized)", (dsBytes+4096)>>10), "yes", "yes"}
	})

	lin := RunWorkload(w, p, ct.Linear{}, 0)
	t.AddRow("software CT (Constantine)", ratio(lin.Cycles, ins.Cycles), "—", "yes", "yes")

	bia := RunWorkload(w, p, ct.BIA{}, 1)
	t.AddRow("BIA (this paper)", ratio(bia.Cycles, ins.Cycles), "1 KiB BIA", "yes", "yes")

	mac := RunWorkload(w, p, ct.BIAMacro{}, 1)
	t.AddRow("BIA macro-ops (Sec. 6.2)", ratio(mac.Cycles, ins.Cycles), "1 KiB BIA + ucode", "yes", "yes")

	t.Notes = append(t.Notes,
		"* preload is only secure if no other process evicts between preload and use; internal/ct tests demonstrate the break and that BIA survives the identical attack",
		"scratchpad accesses emit no cache events at all, but the SRAM must hold the entire DS — the paper's area argument")
	return t
}
