package cpu

import (
	"testing"
	"testing/quick"

	"ctbia/internal/bia"
	"ctbia/internal/memp"
)

func TestWidthRoundTrips(t *testing.T) {
	m := New(smallConfig())
	a := m.Alloc.Alloc("t", 64).Base
	cases := []struct {
		w    Width
		v    uint64
		mask uint64
	}{
		{W8, 0x1ff, 0xff},
		{W16, 0x1fffe, 0xfffe},
		{W32, 0x1fffffffe, 0xfffffffe},
		{W64, 0xdeadbeefcafef00d, ^uint64(0)},
	}
	for _, c := range cases {
		m.StoreW(a, c.v, c.w)
		if got := m.LoadW(a, c.w); got != c.v&c.mask {
			t.Errorf("width %d: %#x, want %#x", c.w, got, c.v&c.mask)
		}
	}
}

// TestInvalidWidthPanics: every accessor that takes a width rejects a
// bad one before it charges anything (the strategies, which drive
// width-less sweeps, have the same test in internal/ct).
func TestInvalidWidthPanics(t *testing.T) {
	const a = memp.Addr(0x10000)
	bad := Width(3)
	for name, f := range map[string]func(m *Machine){
		"LoadW":        func(m *Machine) { m.LoadW(a, bad) },
		"StoreW":       func(m *Machine) { m.StoreW(a, 1, bad) },
		"LoadModeW":    func(m *Machine) { m.LoadModeW(a, bad, ModeStreaming) },
		"StoreModeW":   func(m *Machine) { m.StoreModeW(a, 1, bad, ModeStreaming) },
		"CTLoadW":      func(m *Machine) { m.CTLoadW(a, bad) },
		"CTStoreW":     func(m *Machine) { m.CTStoreW(a, 1, bad) },
		"MacroCTLoad":  func(m *Machine) { m.MacroCTLoad(a, a, 1, bad) },
		"MacroCTStore": func(m *Machine) { m.MacroCTStore(a, a, 1, 1, bad) },
	} {
		m := New(smallConfig())
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: width 3 must panic", name)
				}
				if m.C != (Counters{}) || m.Report() != (Report{}) || m.BIA.Stats != (bia.Stats{}) {
					t.Errorf("%s: the rejected access charged %+v", name, m.Report())
				}
			}()
			f(m)
		}()
	}
}

func TestOpStreamAccounting(t *testing.T) {
	m := New(smallConfig())
	// 8-wide issue: 16 ops = 2 cycles; fractions accumulate.
	m.OpStream(16)
	if m.C.Cycles != 2 || m.C.Insts != 16 {
		t.Fatalf("counters = %+v", m.C)
	}
	m.OpStream(4) // slop 4
	m.OpStream(4) // slop 8 -> +1 cycle
	if m.C.Cycles != 3 || m.C.Insts != 24 {
		t.Fatalf("after slop: %+v", m.C)
	}
}

func TestOpStreamSlopConservationProperty(t *testing.T) {
	// Splitting N ops across arbitrary OpStream calls charges the same
	// total cycles as one big call (within one cycle of slop).
	f := func(chunks []uint8) bool {
		m1 := New(smallConfig())
		total := 0
		for _, c := range chunks {
			n := int(c % 32)
			total += n
			m1.OpStream(n)
		}
		m2 := New(smallConfig())
		m2.OpStream(total)
		d := int64(m1.C.Cycles) - int64(m2.C.Cycles)
		return d == 0 && m1.C.Insts == m2.C.Insts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStreamingHitChargesHalf(t *testing.T) {
	m := New(smallConfig())
	a := m.Alloc.Alloc("t", 4*memp.LineSize)
	m.WarmRegion(a.Base, a.Size)
	m.ResetStats()
	// 4 streaming hits = 2 cycles (two per cycle through dual ports).
	for i := 0; i < 4; i++ {
		m.LoadModeW(a.Base+memp.Addr(i*memp.LineSize), W64, ModeStreaming)
	}
	if m.C.Cycles != 2 {
		t.Fatalf("4 streaming hits = %d cycles, want 2", m.C.Cycles)
	}
	// A streaming MISS pays full latency.
	other := m.Alloc.Alloc("u", 64).Base
	c0 := m.C.Cycles
	m.LoadModeW(other, W64, ModeStreaming)
	if got := m.C.Cycles - c0; got != 2+15+100 {
		t.Fatalf("streaming miss = %d cycles, want full %d", got, 2+15+100)
	}
}

func TestWarmRegionAndResetStats(t *testing.T) {
	m := New(smallConfig())
	reg := m.Alloc.Alloc("t", 300) // spans 5 lines
	m.WarmRegion(reg.Base, reg.Size)
	// Warm is untimed for the core but fills the caches.
	if m.C.Cycles != 0 || m.C.Insts != 0 {
		t.Fatalf("warm charged the core: %+v", m.C)
	}
	for off := uint64(0); off < reg.Size; off += memp.LineSize {
		if p, _ := m.Hier.Level(1).Lookup(reg.Base + memp.Addr(off)); !p {
			t.Fatalf("line +%#x not warmed", off)
		}
	}
	m.Load64(reg.Base)
	m.ResetStats()
	r := m.Report()
	if r.Cycles != 0 || r.L1DRefs != 0 || r.DRAM != 0 {
		t.Fatalf("reset left stats: %+v", r)
	}
	// Zero-size warm is a no-op.
	m.WarmRegion(reg.Base, 0)
}

func TestGenAddrAt(t *testing.T) {
	// Chunk base 0x1200 (M=9 chunk), slot 3, target offset 0x28.
	got := memp.GenAddrAt(0x1200, 3, 0x5528+0x0)
	want := memp.Addr(0x1200 + 3*64 + 0x28)
	if got != want {
		t.Fatalf("GenAddrAt = %v, want %v", got, want)
	}
}
