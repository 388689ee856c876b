package harness

import (
	"fmt"
	"math/rand"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/memp"
)

// The contention experiment probes the boundary condition of the
// paper's design: the BIA's advantage exists because DS lines *stay*
// cached between protected accesses (D_exist is not empty, Sec. 3.2).
// An active co-runner that keeps evicting DS lines erodes that
// advantage — in the limit the BIA degenerates to touching the whole DS
// like software CT (while never doing worse, and never losing
// security). This quantifies the degradation curve.

func init() {
	register(Experiment{
		ID:    "contention",
		Title: "ablation: BIA advantage under co-runner eviction pressure",
		Paper: "Sec. 3.2: the win requires DS_exist non-empty; heavy eviction pressure degrades BIA toward CT",
		Run:   runContention,
	})
}

func runContention(o Options) *Table {
	tableLines := 256 // 16 KiB DS
	ops := 400
	if o.Quick {
		tableLines, ops = 128, 100
	}

	// perOp runs `ops` protected loads at pseudo-random in-DS targets,
	// with `flushes` random DS lines evicted by the co-runner before
	// each op, and returns average cycles per protected load.
	perOp := func(s ct.Strategy, biaLevel, flushes int) float64 {
		m := MachineFor(biaLevel)
		reg := m.Alloc.Alloc("table", uint64(tableLines*memp.LineSize))
		ds := ct.FromRegion(reg)
		m.WarmRegion(reg.Base, reg.Size)
		// Converge the BIA (if any) before measuring.
		s.Load(m, ds, reg.Base, cpu.W32)
		m.ResetStats()
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < ops; i++ {
			for k := 0; k < flushes; k++ {
				m.Hier.Flush(reg.Base + memp.Addr(rng.Intn(tableLines)*memp.LineSize))
			}
			idx := rng.Intn(tableLines * memp.LineSize / 4)
			s.Load(m, ds, reg.Base+memp.Addr(4*idx), cpu.W32)
		}
		// Subtract nothing: flushes are untimed co-runner work; only
		// the victim's loads accumulate cycles.
		return float64(m.Report().Cycles) / float64(ops)
	}

	t := &Table{ID: "contention",
		Title:   fmt.Sprintf("cycles per protected load (%d-line DS) vs co-runner evictions per op", tableLines),
		Headers: []string{"evictions/op", "bia cyc/op", "ct cyc/op", "bia advantage"}}
	for _, flushes := range []int{0, 4, 16, 64, 256} {
		biaC := perOp(ct.BIA{}, 1, flushes)
		linC := perOp(ct.Linear{}, 0, flushes)
		t.AddRow(fmt.Sprintf("%d", flushes),
			fmt.Sprintf("%.0f", biaC),
			fmt.Sprintf("%.0f", linC),
			fmt.Sprintf("%.2fx", linC/biaC))
	}
	t.Notes = append(t.Notes,
		"the co-runner's own accesses are untimed; only the victim's protected loads accumulate cycles",
		"security is unaffected by contention (trace-independence tests cover interference)")
	return t
}
