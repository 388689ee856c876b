package cpu

import (
	"testing"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// The zero-allocation guarantee on the access path is a hard budget:
// every simulated load and store in every experiment goes through
// these functions, so a single allocation per op reappears billions of
// times over `ctbench -exp all`. The benchmarks below fail — not just
// report — when the path allocates, and the plain tests enforce the
// same budgets under `go test ./...` where benchmarks don't run.

// accessSpan keeps the address walk inside the machine's mapped pages
// while still sweeping far more lines than the LLC holds, so the
// benchmark exercises hits, misses, evictions and writebacks.
const accessSpan = 1 << 22

func assertZeroAllocs(t *testing.T, name string, allocs float64) {
	t.Helper()
	if allocs != 0 {
		t.Errorf("%s: %.1f allocs/op, budget is 0", name, allocs)
	}
}

func TestAccessPathZeroAllocs(t *testing.T) {
	m := New(func() Config { c := DefaultConfig(); c.BIALevel = 1; return c }())
	var i uint64
	addr := func() memp.Addr { i++; return memp.Addr(i*64) % accessSpan }

	assertZeroAllocs(t, "Load64", testing.AllocsPerRun(5000, func() { m.Load64(addr()) }))
	assertZeroAllocs(t, "Store64", testing.AllocsPerRun(5000, func() { m.Store64(addr(), i) }))
	assertZeroAllocs(t, "CTLoad64", testing.AllocsPerRun(5000, func() { m.CTLoad64(addr()) }))
	assertZeroAllocs(t, "CTStore64", testing.AllocsPerRun(5000, func() { m.CTStore64(addr(), i) }))
	assertZeroAllocs(t, "SweepLoad", testing.AllocsPerRun(500, func() { m.SweepLoad(addr(), memp.LineSize, 64, 6, ModeNoLRU|ModeStreaming) }))
	assertZeroAllocs(t, "SweepRMW", testing.AllocsPerRun(500, func() { m.SweepRMW(addr(), memp.LineSize, 64, 7, ModeNoLRU|ModeStreaming) }))
	assertZeroAllocs(t, "SweepVec", testing.AllocsPerRun(500, func() { m.SweepVec(addr(), 3, 64, 4, 12, ModeNoLRU|ModeStreaming, true) }))
	assertZeroAllocs(t, "Hier.Access", testing.AllocsPerRun(5000, func() { m.Hier.Access(addr(), 0) }))
	assertZeroAllocs(t, "Hier.Access(write)", testing.AllocsPerRun(5000, func() { m.Hier.Access(addr(), cache.FlagWrite) }))

	// A resident run the L1's residency memo covers is charged in closed
	// form: without a BIA silently, with one at the L1 through its run
	// port. A sweep under an LRU-updating mode goes access by access.
	nb := New(noBIAConfig())
	const runLines = 64
	assertZeroAllocs(t, "SweepRMW(closed form)", testing.AllocsPerRun(500, func() {
		nb.SweepRMW(0, memp.LineSize, runLines, 7, ModeNoLRU|ModeStreaming)
	}))
	m.CTLoad64(0)
	assertZeroAllocs(t, "SweepRMW(snooped closed form)", testing.AllocsPerRun(500, func() {
		m.SweepRMW(0, memp.LineSize, runLines, 7, ModeNoLRU|ModeStreaming)
	}))
	var other memp.Addr
	assertZeroAllocs(t, "SweepVec(access by access)", testing.AllocsPerRun(500, func() {
		other ^= runLines * memp.LineSize
		nb.SweepVec(other, 0, runLines, 4, 12, ModeStreaming, false)
	}))

	// A DS larger than the L1 and noted in the L2's memo by earlier
	// sweeps: each sweep is the batch pass, its misses the memo's, and
	// with the BIA at the L1 the pass sends its events through the batch
	// port, in chunks whatever the sweep's length.
	const thrash = 80 << 10
	for _, mm := range []*Machine{nb, m} {
		for k := 0; k < 3; k++ {
			mm.SweepRMW(thrash, memp.LineSize, thrashLines, 7, ModeNoLRU|ModeStreaming)
		}
	}
	assertZeroAllocs(t, "SweepLoad(pass)", testing.AllocsPerRun(50, func() {
		nb.SweepLoad(thrash, memp.LineSize, thrashLines, 6, ModeNoLRU|ModeStreaming)
	}))
	assertZeroAllocs(t, "SweepRMW(pass)", testing.AllocsPerRun(50, func() {
		nb.SweepRMW(thrash, memp.LineSize, thrashLines, 7, ModeNoLRU|ModeStreaming)
	}))
	assertZeroAllocs(t, "SweepRMW(snooped pass)", testing.AllocsPerRun(50, func() {
		m.SweepRMW(thrash, memp.LineSize, thrashLines, 7, ModeNoLRU|ModeStreaming)
	}))
	var page int
	assertZeroAllocs(t, "SweepLoad(snooped pass, page runs)", testing.AllocsPerRun(500, func() {
		page = (page + 1) % (thrashLines / 64)
		m.SweepLoad(thrash+memp.Addr(page*memp.PageSize), memp.LineSize, 64, 6, ModeNoLRU|ModeStreaming)
	}))

	// Page runs over a DS twice the LLC miss every level: the pass
	// serves each miss through the one-scan outer step, and fills the
	// L1. A Random L1's pass reads it line by line. An LRU-updating
	// sweep goes access by access from the L1, and a bypassing one from
	// the BIA's level.
	var far int
	outer := func(mm *Machine, rmw bool, mode AccessMode) func() {
		return func() {
			far = (far + 1) % dramPages
			a := memp.Addr(accessSpan + far*memp.PageSize)
			if mm.BIA != nil {
				mm.BIA.LookupOrInstall(a)
			}
			if rmw {
				mm.SweepRMW(a, memp.LineSize, 64, 7, mode)
			} else {
				mm.SweepLoad(a, memp.LineSize, 64, 6, mode)
			}
		}
	}
	rnd := New(func() Config { c := DefaultConfig(); c.Levels[0].Policy = cache.Random; c.BIALevel = 1; return c }())
	before, loopBefore := m.Hier.Path.OuterMisses, m.Hier.Path.LoopLines
	assertZeroAllocs(t, "SweepLoad(pass, outer step)", testing.AllocsPerRun(500, outer(nb, false, ModeNoLRU|ModeStreaming)))
	assertZeroAllocs(t, "SweepRMW(snooped pass, outer step)", testing.AllocsPerRun(500, outer(m, true, ModeNoLRU|ModeStreaming)))
	assertZeroAllocs(t, "SweepLoad(Random L1 pass, outer step)", testing.AllocsPerRun(500, outer(rnd, false, ModeNoLRU|ModeStreaming)))
	assertZeroAllocs(t, "SweepRMW(Random L1 pass, outer step)", testing.AllocsPerRun(500, outer(rnd, true, ModeNoLRU|ModeStreaming)))
	if m.Hier.Path.OuterMisses == before || rnd.Hier.Path.PassLines == 0 || rnd.Hier.Path.LoopLines != 0 {
		t.Fatalf("paths %+v and, Random L1, %+v: want misses below the L2 and a Random L1 pass", m.Hier.Path, rnd.Hier.Path)
	}

	// Page runs of replacement's 48 KB DS on the ablations' 8 KB/32 KB/
	// 128 KB machine, the BIA at the L1, after warm runs: the pass plans
	// the L1's sets from their kept rings (readSet sorts none), the outer
	// step reads the L2's full sets by ring-served scans and takes the
	// LLC, whose memo its hits have noted, without scanning, and the LLC's
	// memo absorbs the writebacks of the pairs' dirty victims.
	abl := New(ablationConfig(cache.LRU))
	var ablPage int
	ablRuns := func(rmw bool) func() {
		return func() {
			ablPage = (ablPage + 1) % (48 << 10 / memp.PageSize)
			a := memp.Addr(ablPage * memp.PageSize)
			abl.BIA.LookupOrInstall(a)
			if rmw {
				abl.SweepRMW(a, memp.LineSize, 64, 7, ModeNoLRU|ModeStreaming)
			} else {
				abl.SweepLoad(a, memp.LineSize, 64, 6, ModeNoLRU|ModeStreaming)
			}
		}
	}
	for range 3 * 48 << 10 / memp.PageSize {
		ablRuns(true)()
	}
	memoHits := abl.Hier.Path.OuterMemoHits
	assertZeroAllocs(t, "SweepLoad(pass, kept rings, outer memo hits)", testing.AllocsPerRun(500, ablRuns(false)))
	assertZeroAllocs(t, "SweepRMW(pass, kept rings, outer memo hits, absorbed writebacks)", testing.AllocsPerRun(500, ablRuns(true)))
	if p := abl.Hier.Path; p.OuterMemoHits == memoHits || p.LoopLines != 0 {
		t.Fatalf("ablation machine: path %+v, want the pass and outer memo hits", p)
	}

	assertZeroAllocs(t, "SweepLoad(access by access)", testing.AllocsPerRun(500, outer(m, false, ModeStreaming)))
	if m.Hier.Path.LoopLines == loopBefore {
		t.Fatal("the LRU-updating sweeps took no line access by access")
	}
	l2 := New(func() Config { c := DefaultConfig(); c.BIALevel = 2; return c }())
	assertZeroAllocs(t, "SweepRMW(access by access from the BIA's level)",
		testing.AllocsPerRun(500, outer(l2, true, ModeNoLRU|ModeBypassToBIA|ModeStreaming)))
	if p := l2.Hier.Path; p.LoopLines == 0 || p.PassLines != 0 {
		t.Fatalf("BIA at the L2: path %+v, want the bypassing sweeps access by access", p)
	}
}

func TestMachineResetZeroAllocs(t *testing.T) {
	m := NewDefault()
	// Warm the machine so Reset has real state to shed.
	for i := 0; i < 4096; i++ {
		m.Store64(memp.Addr(i*64)%accessSpan, uint64(i))
	}
	assertZeroAllocs(t, "Machine.Reset", testing.AllocsPerRun(10, func() { m.Reset() }))
}

// BenchmarkAccessAllocs measures and enforces the hierarchy access
// path: 0 allocs/op, a failure otherwise.
func BenchmarkAccessAllocs(b *testing.B) {
	m := New(func() Config { c := DefaultConfig(); c.BIALevel = 1; return c }())
	b.ReportAllocs()
	b.ResetTimer()
	var i uint64
	for n := 0; n < b.N; n++ {
		i++
		addr := memp.Addr(i*64) % accessSpan
		if i&1 == 0 {
			m.Load64(addr)
		} else {
			m.CTLoad64(addr)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(2000, func() { i++; m.Load64(memp.Addr(i*64) % accessSpan) }); allocs != 0 {
		b.Fatalf("access path allocates: %.1f allocs/op, budget is 0", allocs)
	}
}
