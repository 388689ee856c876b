package cpu

import (
	"testing"

	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

func TestMacroCTLoadSemantics(t *testing.T) {
	m := New(smallConfig())
	reg := m.Alloc.Alloc("t", memp.PageSize)
	for i := 0; i < 64; i++ {
		m.Mem.Write32(reg.Base+memp.Addr(i*64), uint32(i+100))
	}
	mask := ^uint64(0)
	// Target in-page: data returned, inPage true, DS fully fetched.
	data, inPage := m.MacroCTLoad(reg.Base, reg.Base+5*64, mask, W32)
	if !inPage || uint32(data) != 105 {
		t.Fatalf("macro load = %d,%v", data, inPage)
	}
	for i := 0; i < 64; i++ {
		if p, _ := m.Hier.Level(1).Lookup(reg.Base + memp.Addr(i*64)); !p {
			t.Fatalf("line %d not fetched", i)
		}
	}
	// Target in a different page: inPage false.
	other := m.Alloc.Alloc("u", memp.PageSize)
	if _, in := m.MacroCTLoad(reg.Base, other.Base, mask, W32); in {
		t.Fatal("foreign target should report inPage=false")
	}
}

func TestMacroCTStoreSemantics(t *testing.T) {
	m := New(smallConfig())
	reg := m.Alloc.Alloc("t", memp.PageSize)
	mask := ^uint64(0)
	m.MacroCTStore(reg.Base, reg.Base+8, mask, 0xbeef, W32)
	if got := m.Mem.Read32(reg.Base + 8); got != 0xbeef {
		t.Fatalf("macro store = %#x", got)
	}
	// Neighbours untouched.
	if got := m.Mem.Read32(reg.Base + 12); got != 0 {
		t.Fatalf("neighbour corrupted: %#x", got)
	}
	// Store with target in another page: page gets RMW'd but keeps its
	// own values.
	other := m.Alloc.Alloc("u", memp.PageSize)
	m.Mem.Write32(reg.Base+16, 7)
	m.MacroCTStore(reg.Base, other.Base+16, mask, 0xdead, W32)
	if got := m.Mem.Read32(reg.Base + 16); got != 7 {
		t.Fatalf("foreign-target macro store corrupted page: %#x", got)
	}
}

func TestMacroOpsPanicWithoutBIA(t *testing.T) {
	cfg := smallConfig()
	cfg.BIALevel = 0
	m := New(cfg)
	for _, f := range []func(){
		func() { m.MacroCTLoad(0x10000, 0x10000, 1, W32) },
		func() { m.MacroCTStore(0x10000, 0x10000, 1, 0, W32) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("macro op without BIA must panic")
				}
			}()
			f()
		}()
	}
}

func TestMachineAccessors(t *testing.T) {
	m := NewDefault()
	if m.Config().DRAMLatency != DefaultConfig().DRAMLatency {
		t.Fatal("Config accessor")
	}
	if m.BIALevel() != 1 {
		t.Fatalf("BIALevel = %d", m.BIALevel())
	}
}

func TestScratchpadDirect(t *testing.T) {
	m := New(smallConfig())
	sp := m.NewScratchpad(4096, 3)
	if sp.Capacity() != 4096 || sp.Used() != 0 {
		t.Fatal("metadata")
	}
	reg := m.Alloc.Alloc("t", 256)
	m.CopyIn(sp, reg.Base, reg.Size)
	m.CopyIn(sp, reg.Base, reg.Size) // idempotent
	if sp.Used() != 256 {
		t.Fatalf("used = %d", sp.Used())
	}
	if !sp.Holds(reg.Base + 100) {
		t.Fatal("Holds")
	}
	m.ScratchStore(sp, reg.Base+8, 0x11223344, W32)
	if got := m.ScratchLoad(sp, reg.Base+8, W32); got != 0x11223344 {
		t.Fatalf("round trip = %#x", got)
	}
	// Scratch accesses cost the scratch latency only.
	c0 := m.C.Cycles
	m.ScratchLoad(sp, reg.Base, W32)
	if m.C.Cycles-c0 != 3 {
		t.Fatalf("scratch latency = %d", m.C.Cycles-c0)
	}
	// Bad constructor args panic.
	defer func() {
		if recover() == nil {
			t.Fatal("bad scratchpad args must panic")
		}
	}()
	m.NewScratchpad(0, 1)
}

// The trace format has no scratchpad operations, so every scratchpad op
// refuses to run while a recorder is attached instead of leaving a
// recording that silently misses its cost. Detached, they run again.
func TestScratchpadRefusesRecorder(t *testing.T) {
	m := New(smallConfig())
	sp := m.NewScratchpad(4096, 3)
	reg := m.Alloc.Alloc("t", 256)
	m.CopyIn(sp, reg.Base, reg.Size)
	ops := map[string]func(){
		"CopyIn":       func() { m.CopyIn(sp, reg.Base, reg.Size) },
		"ScratchLoad":  func() { m.ScratchLoad(sp, reg.Base, W32) },
		"ScratchStore": func() { m.ScratchStore(sp, reg.Base, 1, W32) },
	}
	m.SetRecorder(trace.NewRecorder(0))
	c0 := m.C
	for name, op := range ops {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s ran with a recorder attached", name)
				}
			}()
			op()
		}()
	}
	if m.C != c0 {
		t.Errorf("refused scratchpad ops charged the machine: %+v, want %+v", m.C, c0)
	}
	m.SetRecorder(nil)
	for _, op := range ops {
		op()
	}
}

func TestStoreModeW(t *testing.T) {
	m := New(smallConfig())
	a := m.Alloc.Alloc("t", 64).Base
	m.StoreModeW(a, 5, W32, ModeUncached)
	if got := m.Mem.Read32(a); got != 5 {
		t.Fatalf("StoreModeW = %d", got)
	}
	if p, _ := m.Hier.Level(1).Lookup(a); p {
		t.Fatal("uncached store must not allocate")
	}
}
