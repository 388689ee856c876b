package ct

import (
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

func TestMacroFunctionalEquivalence(t *testing.T) {
	m := cpu.New(testConfig(1))
	reg := m.Alloc.Alloc("t", 2*memp.PageSize)
	ds := FromRegion(reg)
	n := int(reg.Size / 4)
	for i := 0; i < n; i++ {
		m.Mem.Write32(reg.Base+memp.Addr(4*i), uint32(i*2654435761))
	}
	s := BIAMacro{}
	for _, i := range []int{0, 1, 1023, 1024, n - 1} {
		addr := reg.Base + memp.Addr(4*i)
		if got := uint32(s.Load(m, ds, addr, cpu.W32)); got != m.Mem.Read32(addr) {
			t.Fatalf("macro load[%d] = %#x, want %#x", i, got, m.Mem.Read32(addr))
		}
	}
	s.Store(m, ds, reg.Base+8, 0xbeef, cpu.W32)
	if got := m.Mem.Read32(reg.Base + 8); got != 0xbeef {
		t.Fatalf("macro store lost: %#x", got)
	}
	want3 := uint32(3 * 2654435761 & 0xffffffff)
	if got, want := m.Mem.Read32(reg.Base+12), want3; got != want {
		t.Fatalf("macro store corrupted a neighbour: %#x, want %#x", got, want)
	}
	blk := s.LoadBlock(m, ds, reg.Base+memp.Addr(5*memp.LineSize), 3)
	if len(blk) != 3*memp.LineSize {
		t.Fatalf("block len = %d", len(blk))
	}

	// A gapped DS: loads see the words, stores land only at the target.
	greg := m.Alloc.Alloc("gapped", 5*memp.PageSize/2)
	gds := gappedSet(greg)
	ref := fillWords(m, greg)
	words := gds.NumLines() * memp.LineSize / 4
	for _, k := range []int{0, 17, 63, 64, words / 2, words - 1} {
		addr := setWord(gds, k)
		if got := uint32(s.Load(m, gds, addr, cpu.W32)); got != ref[(addr-greg.Base)/4] {
			t.Fatalf("gapped macro load at %v = %#x, want %#x", addr, got, ref[(addr-greg.Base)/4])
		}
		s.Store(m, gds, addr, uint64(k), cpu.W32)
		ref[(addr-greg.Base)/4] = uint32(k)
	}
	for i, want := range ref {
		if got := m.Mem.Read32(greg.Base + memp.Addr(4*i)); got != want {
			t.Fatalf("gapped macro store: word %d = %#x, want %#x", i, got, want)
		}
	}
}

func TestMacroSameFootprintAsBIA(t *testing.T) {
	// The macro strategy must generate the same attacker-visible trace
	// as the software BIA strategy — same algorithm, same footprint.
	run := func(s Strategy, gapped bool) string {
		m := cpu.New(testConfig(1))
		rec := &traceRecorder{}
		m.Hier.Subscribe(rec)
		var ds *LinSet
		if gapped {
			ds = gappedSet(m.Alloc.Alloc("t", 5*memp.PageSize/2))
		} else {
			ds = FromRegion(m.Alloc.Alloc("t", memp.PageSize))
		}
		for i := 0; i < 8; i++ {
			s.Load(m, ds, setWord(ds, i*65), cpu.W32)
			s.Store(m, ds, setWord(ds, i*129), uint64(i), cpu.W32)
		}
		return rec.key()
	}
	for _, gapped := range []bool{false, true} {
		if run(BIA{}, gapped) != run(BIAMacro{}, gapped) {
			t.Fatalf("macro-op footprint differs from the software algorithm (gapped=%v)", gapped)
		}
	}
}

func TestMacroFewerInstructionsThanSoftwareBIA(t *testing.T) {
	// The point of macro-fusion: the loop bookkeeping retires as
	// micro-code, shrinking the architectural instruction stream.
	run := func(s Strategy) uint64 {
		m := cpu.New(testConfig(1))
		reg := m.Alloc.Alloc("t", memp.PageSize)
		ds := FromRegion(reg)
		for i := 0; i < 16; i++ {
			s.Load(m, ds, reg.Base+memp.Addr(i*64), cpu.W32)
		}
		return m.Report().Insts
	}
	macro, soft := run(BIAMacro{}), run(BIA{})
	if macro >= soft {
		t.Fatalf("macro insts %d should be below software insts %d", macro, soft)
	}
}

func TestMacroTraceIndependence(t *testing.T) {
	run := func(secret int, gapped bool) string {
		m := cpu.New(testConfig(1))
		rec := &traceRecorder{}
		m.Hier.Subscribe(rec)
		var ds *LinSet
		if gapped {
			ds = gappedSet(m.Alloc.Alloc("t", 5*memp.PageSize/2))
		} else {
			ds = FromRegion(m.Alloc.Alloc("t", memp.PageSize))
		}
		for i := 0; i < 6; i++ {
			idx := secret + 37*i
			s := BIAMacro{}
			s.Load(m, ds, setWord(ds, idx), cpu.W32)
			s.Store(m, ds, setWord(ds, idx*7), 9, cpu.W32)
		}
		return rec.key()
	}
	for _, gapped := range []bool{false, true} {
		if run(5, gapped) != run(777, gapped) {
			t.Fatalf("macro strategy leaks (gapped=%v)", gapped)
		}
	}
}

func TestMacroPanicsWithoutBIA(t *testing.T) {
	m := cpu.New(testConfig(0))
	reg := m.Alloc.Alloc("t", 256)
	ds := FromRegion(reg)
	defer func() {
		if recover() == nil {
			t.Fatal("macro ops need a BIA")
		}
	}()
	BIAMacro{}.Load(m, ds, reg.Base, cpu.W32)
}

func TestMacroMetadata(t *testing.T) {
	if (BIAMacro{}).Name() != "bia-macro" || !(BIAMacro{}).NeedsBIA() {
		t.Fatal("metadata")
	}
}
