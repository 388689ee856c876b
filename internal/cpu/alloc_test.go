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

	// Without a BIA nothing snoops the L1, so a repeated resident run is
	// charged from the L1's remembered run, and alternating between two
	// resident runs remembers a new one every call.
	nb := New(noBIAConfig())
	const runLines = 64
	assertZeroAllocs(t, "SweepRMW(remembered run)", testing.AllocsPerRun(500, func() {
		nb.SweepRMW(0, memp.LineSize, runLines, 7, ModeNoLRU|ModeStreaming)
	}))
	var other memp.Addr
	assertZeroAllocs(t, "SweepVec(remembering a run)", testing.AllocsPerRun(500, func() {
		other ^= runLines * memp.LineSize
		nb.SweepVec(other, 0, runLines, 4, 12, ModeNoLRU|ModeStreaming, false)
	}))
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
