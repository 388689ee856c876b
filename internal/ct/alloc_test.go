package ct

import (
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// A protected access is the unit every workload repeats millions of
// times, so the strategies carry the machine's hard allocation budget:
// zero per Load or Store on a warm machine. The test enforces it under
// `go test ./...`; the benchmark reports it and fails on a breach.

// allocCase is one strategy on a machine that can run it.
type allocCase struct {
	s        Strategy
	biaLevel int
}

var allocCases = []allocCase{
	{Direct{}, 0},
	{Linear{}, 0},
	{LinearVec{}, 0},
	{BIA{}, 1},
	{BIA{}, 2},
	{BIA{Threshold: 4}, 1},
	{BIAMacro{}, 1},
	{Preload{}, 0},
}

// warmAccess returns a Load+Store pair over a gapped DS on a machine
// that has already run it once, so pages and BIA entries exist.
func warmAccess(c allocCase) func() {
	m := cpu.New(testConfig(c.biaLevel))
	ds := gappedSet(m.Alloc.Alloc("t", 5*memp.PageSize/2))
	k := 0
	access := func() {
		k += 37
		addr := setWord(ds, k)
		v := c.s.Load(m, ds, addr, cpu.W32)
		c.s.Store(m, ds, addr, v+1, cpu.W32)
	}
	for i := 0; i < ds.NumLines(); i++ {
		access()
	}
	return access
}

func TestStrategyZeroAllocs(t *testing.T) {
	for _, c := range allocCases {
		access := warmAccess(c)
		if allocs := testing.AllocsPerRun(200, access); allocs != 0 {
			t.Errorf("%s (BIA at L%d): %.1f allocs per Load+Store, budget is 0", c.s.Name(), c.biaLevel, allocs)
		}
	}
}

// BenchmarkStrategyAllocs measures one protected Load+Store per
// strategy and enforces the zero-allocation budget.
func BenchmarkStrategyAllocs(b *testing.B) {
	for _, c := range allocCases {
		access := warmAccess(c)
		name := c.s.Name()
		if c.s.NeedsBIA() {
			name += "-L" + string(rune('0'+c.biaLevel))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				access()
			}
			b.StopTimer()
			if allocs := testing.AllocsPerRun(50, access); allocs != 0 {
				b.Fatalf("%.1f allocs per Load+Store, budget is 0", allocs)
			}
		})
	}
}
