package ct

import (
	"math/bits"
	"math/rand"
	"testing"

	"ctbia/internal/bia"
	"ctbia/internal/cache"
	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// testConfig returns a small machine config; biaLevel 0 disables BIA.
func testConfig(biaLevel int) cpu.Config {
	return cpu.Config{
		Levels: []cache.Config{
			{Name: "L1d", Size: 8192, Ways: 2, Latency: 2},
			{Name: "L2", Size: 65536, Ways: 4, Latency: 15},
		},
		DRAMLatency: 100,
		BIA:         bia.Config{Entries: 16, Ways: 4, Latency: 1},
		BIALevel:    biaLevel,
	}
}

// allStrategies returns every strategy paired with a machine that can
// run it.
func allStrategies() []struct {
	s Strategy
	m *cpu.Machine
} {
	return []struct {
		s Strategy
		m *cpu.Machine
	}{
		{Direct{}, cpu.New(testConfig(0))},
		{Linear{}, cpu.New(testConfig(0))},
		{LinearVec{}, cpu.New(testConfig(0))},
		{BIA{}, cpu.New(testConfig(1))},
		{BIA{}, cpu.New(testConfig(2))},
		{BIA{Threshold: 4}, cpu.New(testConfig(1))},
	}
}

func TestStrategyMetadata(t *testing.T) {
	if (Direct{}).Name() != "insecure" || (Direct{}).NeedsBIA() {
		t.Error("Direct metadata")
	}
	if (Linear{}).Name() != "ct" || (Linear{}).NeedsBIA() {
		t.Error("Linear metadata")
	}
	if (LinearVec{}).Name() != "ct-avx" {
		t.Error("LinearVec metadata")
	}
	if (BIA{}).Name() != "bia" || !(BIA{}).NeedsBIA() {
		t.Error("BIA metadata")
	}
	if (BIA{Threshold: 2}).Name() != "bia-thresh" {
		t.Error("BIA threshold metadata")
	}
}

// gappedSet is the DS with holes the functional, footprint and
// trace-independence tests run beside the contiguous one: lines of reg
// with gaps of one and two lines, runs of one to seven lines (so vector
// bundles straddle gaps), a run across a page boundary, and partial
// first and last pages.
func gappedSet(reg memp.Region) *LinSet {
	var lines []memp.Addr
	for i := 1; i < int(reg.Size/memp.LineSize)-1; i++ {
		if i%9 == 4 || i%9 == 5 || i%23 == 11 {
			continue
		}
		lines = append(lines, reg.Base+memp.Addr(i*memp.LineSize))
	}
	return FromLines("gapped", lines)
}

// setWord maps k onto the k-th 4-byte word of ds (modulo its size),
// counting through Lines() in order; on a contiguous page-aligned set
// that is base+4k.
func setWord(ds *LinSet, k int) memp.Addr {
	k %= ds.NumLines() * memp.LineSize / 4
	if k < 0 {
		k += ds.NumLines() * memp.LineSize / 4
	}
	return ds.Lines()[k/(memp.LineSize/4)] + memp.Addr(4*(k%(memp.LineSize/4)))
}

// fillWords writes a distinct value to every 4-byte word of reg with
// plain memory writes and returns them.
func fillWords(m *cpu.Machine, reg memp.Region) []uint32 {
	ref := make([]uint32, reg.Size/4)
	for i := range ref {
		ref[i] = uint32(i * 2654435761)
		m.Mem.Write32(reg.Base+memp.Addr(4*i), ref[i])
	}
	return ref
}

// TestLoadFunctionalEquivalence: every strategy returns exactly what a
// direct memory read would, for every element of a multi-page DS, and
// for elements of a gapped one.
func TestLoadFunctionalEquivalence(t *testing.T) {
	for _, tc := range allStrategies() {
		m := tc.m
		reg := m.Alloc.Alloc("table", 3*memp.PageSize/2) // 1.5 pages
		ds := FromRegion(reg)
		// Fill the table with distinct values via plain memory writes.
		n := reg.Size / 4
		for i := uint64(0); i < n; i++ {
			m.Mem.Write32(reg.Base+memp.Addr(4*i), uint32(i*2654435761))
		}
		for _, i := range []uint64{0, 1, 15, 16, 17, n / 2, n - 2, n - 1} {
			addr := reg.Base + memp.Addr(4*i)
			want := m.Mem.Read32(addr)
			got := uint32(tc.s.Load(m, ds, addr, cpu.W32))
			if got != want {
				t.Errorf("%s(biaL%d): Load[%d] = %#x, want %#x",
					tc.s.Name(), m.BIALevel(), i, got, want)
			}
		}

		greg := m.Alloc.Alloc("gapped", 5*memp.PageSize/2)
		gds := gappedSet(greg)
		fillWords(m, greg)
		words := gds.NumLines() * memp.LineSize / 4
		for _, k := range []int{0, 1, 17, 63, 64, 70, words / 2, words - 17, words - 1} {
			addr := setWord(gds, k)
			want := m.Mem.Read32(addr)
			if got := uint32(tc.s.Load(m, gds, addr, cpu.W32)); got != want {
				t.Errorf("%s(biaL%d): gapped Load at %v = %#x, want %#x",
					tc.s.Name(), m.BIALevel(), addr, got, want)
			}
		}
	}
}

// TestStoreFunctionalEquivalence: stores land at the target and nowhere
// else, for every strategy, across repeated stores, on a contiguous and
// a gapped DS (whose holes must keep their contents too).
func TestStoreFunctionalEquivalence(t *testing.T) {
	for _, tc := range allStrategies() {
		m := tc.m
		reg := m.Alloc.Alloc("table", memp.PageSize+256)
		ds := FromRegion(reg)
		n := reg.Size / 4
		ref := make([]uint32, n)
		rng := rand.New(rand.NewSource(5))
		for step := 0; step < 40; step++ {
			i := uint64(rng.Intn(int(n)))
			v := rng.Uint32()
			ref[i] = v
			tc.s.Store(m, ds, reg.Base+memp.Addr(4*i), uint64(v), cpu.W32)
		}
		for i := uint64(0); i < n; i++ {
			if got := m.Mem.Read32(reg.Base + memp.Addr(4*i)); got != ref[i] {
				t.Fatalf("%s(biaL%d): slot %d = %#x, want %#x",
					tc.s.Name(), m.BIALevel(), i, got, ref[i])
			}
		}

		greg := m.Alloc.Alloc("gapped", 5*memp.PageSize/2)
		gds := gappedSet(greg)
		gref := fillWords(m, greg)
		for step := 0; step < 40; step++ {
			addr := setWord(gds, rng.Intn(1<<20))
			v := rng.Uint32()
			gref[(addr-greg.Base)/4] = v
			tc.s.Store(m, gds, addr, uint64(v), cpu.W32)
		}
		for i, want := range gref {
			if got := m.Mem.Read32(greg.Base + memp.Addr(4*i)); got != want {
				t.Fatalf("%s(biaL%d): gapped slot %d = %#x, want %#x",
					tc.s.Name(), m.BIALevel(), i, got, want)
			}
		}
	}
}

// TestMixedLoadStoreSequence stresses read-after-write through each
// strategy (histogram-style increments).
func TestMixedLoadStoreSequence(t *testing.T) {
	for _, tc := range allStrategies() {
		m := tc.m
		reg := m.Alloc.Alloc("bins", 2048)
		ds := FromRegion(reg)
		n := int(reg.Size / 4)
		ref := make([]uint32, n)
		rng := rand.New(rand.NewSource(11))
		for step := 0; step < 60; step++ {
			i := rng.Intn(n)
			addr := reg.Base + memp.Addr(4*i)
			v := uint32(tc.s.Load(m, ds, addr, cpu.W32))
			if v != ref[i] {
				t.Fatalf("%s: read slot %d = %d, want %d", tc.s.Name(), i, v, ref[i])
			}
			ref[i]++
			tc.s.Store(m, ds, addr, uint64(ref[i]), cpu.W32)
		}
	}
}

// TestOutOfSetAccessPanics: accessing outside the DS is a
// transformation bug and must fail loudly.
func TestOutOfSetAccessPanics(t *testing.T) {
	m := cpu.New(testConfig(1))
	reg := m.Alloc.Alloc("t", 256)
	other := m.Alloc.Alloc("u", 256)
	ds := FromRegion(reg)
	for _, s := range []Strategy{Linear{}, LinearVec{}, BIA{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-set load must panic", s.Name())
				}
			}()
			s.Load(m, ds, other.Base, cpu.W32)
		}()
	}
}

// TestLinearTouchesWholeSet: the software-CT baseline must reference
// every DS line on every access — that is precisely its cost.
func TestLinearTouchesWholeSet(t *testing.T) {
	m := cpu.New(testConfig(0))
	reg := m.Alloc.Alloc("t", memp.PageSize) // 64 lines
	ds := FromRegion(reg)
	before := m.Report().L1DRefs
	Linear{}.Load(m, ds, reg.Base+4, cpu.W32)
	if got := m.Report().L1DRefs - before; got != 64 {
		t.Fatalf("Linear load issued %d refs, want 64", got)
	}
	before = m.Report().L1DRefs
	Linear{}.Store(m, ds, reg.Base+4, 1, cpu.W32)
	if got := m.Report().L1DRefs - before; got != 128 { // RMW per line
		t.Fatalf("Linear store issued %d refs, want 128", got)
	}
}

// TestBIAFetchPatterns runs Alg. 2/3 and their macro-ops on one-page
// DSs whose fetch set is all 64 lines (one run), every other line
// (32 runs) and a single line: each fetches exactly those lines, and the
// data comes out right whether or not the target's line was fetched.
func TestBIAFetchPatterns(t *testing.T) {
	for _, pattern := range []uint64{^uint64(0), 0x5555555555555555, 1 << 29} {
		for _, s := range []Strategy{BIA{}, BIAMacro{}} {
			for _, store := range []bool{false, true} {
				for _, slot := range []uint{29, 30} {
					m := cpu.New(testConfig(1))
					reg := m.Alloc.Alloc("t", memp.PageSize)
					ds := FromRegion(reg)
					ref := fillWords(m, reg)
					// Install the page's BIA entry, then make every line
					// outside the pattern present (dirty, for Alg. 3) so
					// the bitmap leaves exactly the pattern to fetch.
					m.CTLoadW(reg.Base, cpu.W32)
					for l := uint(0); l < memp.LinesPerPage; l++ {
						if pattern&(1<<l) == 0 {
							a := memp.LineOf(reg.Base, l)
							m.Store64(a, m.Mem.Read64(a))
						}
					}
					target := memp.LineOf(reg.Base, slot) + 12
					before, ds0 := m.Report(), m.DS
					fetches := uint64(bits.OnesCount64(pattern))
					wantRefs := 1 + fetches
					if store {
						s.Store(m, ds, target, 0xfeed, cpu.W32)
						ref[(target-reg.Base)/4] = 0xfeed
						wantRefs = 2 + 2*fetches
					} else if got := uint32(s.Load(m, ds, target, cpu.W32)); got != ref[(target-reg.Base)/4] {
						t.Errorf("%s pattern %#x slot %d: Load = %#x, want %#x", s.Name(), pattern, slot, got, ref[(target-reg.Base)/4])
					}
					if refs := m.Report().L1DRefs - before.L1DRefs; refs != wantRefs {
						t.Errorf("%s pattern %#x store=%v: %d L1 refs, want %d", s.Name(), pattern, store, refs, wantRefs)
					}
					if skipped := m.DS.LinesSkipped - ds0.LinesSkipped; skipped != 64-fetches {
						t.Errorf("%s pattern %#x store=%v: skipped %d lines, want %d", s.Name(), pattern, store, skipped, 64-fetches)
					}
					for i, want := range ref {
						if got := m.Mem.Read32(reg.Base + memp.Addr(4*i)); got != want {
							t.Fatalf("%s pattern %#x slot %d store=%v: word %d = %#x, want %#x", s.Name(), pattern, slot, store, i, got, want)
						}
					}
				}
			}
		}
	}
}

// TestInvalidWidthPanics: every strategy rejects a bad width before it
// charges anything, so the machine's counters are untouched.
func TestInvalidWidthPanics(t *testing.T) {
	strategies := []func(*cpu.Machine) Strategy{
		func(*cpu.Machine) Strategy { return Direct{} },
		func(*cpu.Machine) Strategy { return Linear{} },
		func(*cpu.Machine) Strategy { return LinearVec{} },
		func(*cpu.Machine) Strategy { return BIA{} },
		func(*cpu.Machine) Strategy { return BIA{Threshold: 4} },
		func(*cpu.Machine) Strategy { return BIAMacro{} },
		func(*cpu.Machine) Strategy { return Preload{} },
		func(m *cpu.Machine) Strategy { return NewScratchpadStrategy(m.NewScratchpad(memp.PageSize, 1)) },
	}
	for _, mk := range strategies {
		for _, store := range []bool{false, true} {
			m := cpu.New(testConfig(1))
			s := mk(m)
			reg := m.Alloc.Alloc("t", memp.PageSize)
			ds := FromRegion(reg)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s store=%v: width 3 must panic", s.Name(), store)
					}
					if m.C != (cpu.Counters{}) || m.Report() != (cpu.Report{}) || m.BIA.Stats != (bia.Stats{}) || m.DS != (cpu.DSStats{}) {
						t.Errorf("%s store=%v: the rejected access charged %+v", s.Name(), store, m.Report())
					}
				}()
				if store {
					s.Store(m, ds, reg.Base+4, 1, cpu.Width(3))
				} else {
					s.Load(m, ds, reg.Base+4, cpu.Width(3))
				}
			}()
		}
	}
}

// TestBIAWarmSetTouchesFewLines: once the DS is cached and the BIA has
// converged, a protected load costs one CTLoad probe per page and zero
// fetches — the paper's Fig. 3 "3 accesses instead of 5" effect taken
// to its steady state.
func TestBIAWarmSetTouchesFewLines(t *testing.T) {
	m := cpu.New(testConfig(1))
	reg := m.Alloc.Alloc("t", memp.PageSize)
	ds := FromRegion(reg)
	s := BIA{}
	// First access: entry installs zeroed, everything fetched.
	s.Load(m, ds, reg.Base, cpu.W32)
	// Second access: existence is now fully known.
	before := m.Report()
	s.Load(m, ds, reg.Base+64, cpu.W32)
	after := m.Report()
	if got := after.L1DRefs - before.L1DRefs; got != 1 {
		t.Fatalf("warm BIA load issued %d L1d refs, want 1 (the CTLoad probe)", got)
	}
	if after.DRAM != before.DRAM {
		t.Fatal("warm BIA load must not touch DRAM")
	}
}

// TestBIAPartialWarmFetchesOnlyMissing mirrors the paper's Fig. 3
// example: 5-line DS, 3 lines cached, target cached → exactly the 2
// missing lines are fetched (plus the CTLoad probe).
func TestBIAPartialWarmFetchesOnlyMissing(t *testing.T) {
	m := cpu.New(testConfig(1))
	reg := m.Alloc.Alloc("t", 5*memp.LineSize)
	ds := FromRegion(reg)
	target := reg.Base + memp.LineSize + 8 // line 1, like 0x1048

	// Warm lines 1,2,3 (like 0x1040/0x1080/0x10c0 in Fig. 3) and let
	// the BIA observe them.
	m.CTLoadW(reg.Base, cpu.W32) // install entry first so snoops land
	for _, slot := range []uint{1, 2, 3} {
		m.Load64(memp.LineOf(reg.Base, slot))
	}
	before := m.Report()
	got := uint32(BIA{}.Load(m, ds, target, cpu.W32))
	after := m.Report()
	if got != m.Mem.Read32(target) {
		t.Fatal("wrong data")
	}
	// 1 CTLoad probe + 2 fetches (lines 0 and 4) = 3 accesses — the
	// paper's "only 3 requests are required".
	if refs := after.L1DRefs - before.L1DRefs; refs != 3 {
		t.Fatalf("refs = %d, want 3 (Fig. 3)", refs)
	}
}

// TestBIAThresholdBypassesCaches: when the fetchset exceeds the
// threshold, DS lines are serviced uncached (Sec. 6.5), leaving the
// cache untouched.
func TestBIAThresholdBypassesCaches(t *testing.T) {
	m := cpu.New(testConfig(1))
	reg := m.Alloc.Alloc("t", memp.PageSize) // 64-line fetchset when cold
	ds := FromRegion(reg)
	before := m.Report()
	BIA{Threshold: 8}.Load(m, ds, reg.Base, cpu.W32)
	after := m.Report()
	if got := after.DRAM - before.DRAM; got != 64 {
		t.Fatalf("DRAM accesses = %d, want 64 (all uncached)", got)
	}
	if p, _ := m.Hier.Level(1).Lookup(reg.Base); p {
		t.Fatal("uncached fetch must not fill the cache")
	}
	// Small fetchsets stay cached: warm all lines, evict two, reload.
	m2 := cpu.New(testConfig(1))
	reg2 := m2.Alloc.Alloc("t", memp.PageSize)
	ds2 := FromRegion(reg2)
	BIA{}.Load(m2, ds2, reg2.Base, cpu.W32) // warm everything
	m2.Hier.Flush(reg2.Base)
	d0 := m2.Report().DRAM
	BIA{Threshold: 8}.Load(m2, ds2, reg2.Base+64, cpu.W32)
	if got := m2.Report().DRAM - d0; got != 1 {
		t.Fatalf("below-threshold fetch: DRAM = %d, want 1 cached refill", got)
	}
	if p, _ := m2.Hier.Level(1).Lookup(reg2.Base); !p {
		t.Fatal("below-threshold fetch should refill the cache")
	}
}

// TestL2BIABypassesL1: with an L2-resident BIA, neither the CT probes
// nor the DS fetches may touch L1 ("bypass the L1 cache for security").
func TestL2BIABypassesL1(t *testing.T) {
	m := cpu.New(testConfig(2))
	reg := m.Alloc.Alloc("t", 256)
	ds := FromRegion(reg)
	BIA{}.Load(m, ds, reg.Base, cpu.W32)
	BIA{}.Store(m, ds, reg.Base+4, 7, cpu.W32)
	if got := m.Hier.Level(1).Stats.Accesses; got != 0 {
		t.Fatalf("L1 saw %d accesses; all protected traffic must bypass it", got)
	}
	if got := m.Mem.Read32(reg.Base + 4); got != 7 {
		t.Fatalf("store lost: %d", got)
	}
}

func TestSelectHelpers(t *testing.T) {
	m := cpu.New(testConfig(0))
	if Select(m, true, 3, 9) != 3 || Select(m, false, 3, 9) != 9 {
		t.Error("Select")
	}
	if Select32(m, true, 1, 2) != 1 {
		t.Error("Select32")
	}
	if Min(m, 7, 4) != 4 || Min(m, 2, 8) != 2 {
		t.Error("Min")
	}
	if !LessCT(m, 1, 2) || LessCT(m, 2, 1) {
		t.Error("LessCT")
	}
	if !EqCT(m, 5, 5) || EqCT(m, 5, 6) {
		t.Error("EqCT")
	}
	if !SignedLessCT(m, -2, 1) || SignedLessCT(m, 1, -2) {
		t.Error("SignedLessCT")
	}
	if SelectInt(m, true, -5, 5) != -5 || SelectInt(m, false, -5, 5) != 5 {
		t.Error("SelectInt")
	}
	if Mask64(true) != ^uint64(0) || Mask64(false) != 0 {
		t.Error("Mask64")
	}
	if m.C.Insts == 0 {
		t.Error("helpers must charge instructions")
	}
}
