package ct

import (
	"bytes"
	"testing"

	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

func TestLoadBlockFunctionalEquivalence(t *testing.T) {
	for _, tc := range allStrategies() {
		m := tc.m
		reg := m.Alloc.Alloc("matrix", 2*memp.PageSize)
		ds := FromRegion(reg)
		raw := make([]byte, reg.Size)
		for i := range raw {
			raw[i] = byte(i * 131)
		}
		m.Mem.Write(reg.Base, raw)
		for _, blk := range []struct {
			off    uint64
			nLines int
		}{
			{0, 1},
			{64, 4},
			{memp.PageSize - 128, 4}, // straddles a page boundary
			{0, 64},
		} {
			got := tc.s.LoadBlock(m, ds, reg.Base+memp.Addr(blk.off), blk.nLines)
			want := raw[blk.off : blk.off+uint64(blk.nLines*memp.LineSize)]
			if !bytes.Equal(got, want) {
				t.Errorf("%s(biaL%d): LoadBlock(%#x,%d) wrong bytes",
					tc.s.Name(), m.BIALevel(), blk.off, blk.nLines)
			}
		}

		// A gapped DS: blocks at the start of every run, up to 4 lines.
		greg := m.Alloc.Alloc("gapped", 5*memp.PageSize/2)
		gds := gappedSet(greg)
		graw := make([]byte, greg.Size)
		for i := range graw {
			graw[i] = byte(i * 17)
		}
		m.Mem.Write(greg.Base, graw)
		for _, r := range gds.runs {
			n := min(r.n, 4)
			off := uint64(r.base - greg.Base)
			got := tc.s.LoadBlock(m, gds, r.base, n)
			if !bytes.Equal(got, graw[off:off+uint64(n*memp.LineSize)]) {
				t.Errorf("%s(biaL%d): gapped LoadBlock(%v,%d) wrong bytes",
					tc.s.Name(), m.BIALevel(), r.base, n)
			}
		}
	}
}

func TestLoadBlockFootprints(t *testing.T) {
	// Insecure: touches only the block. CT: touches the whole DS.
	// BIA warm: touches almost nothing.
	mkDS := func(m *cpu.Machine) (*LinSet, memp.Region) {
		reg := m.Alloc.Alloc("matrix", memp.PageSize) // 64 lines
		return FromRegion(reg), reg
	}

	m := cpu.New(testConfig(0))
	ds, reg := mkDS(m)
	before := m.Report().L1DRefs
	Direct{}.LoadBlock(m, ds, reg.Base+4*memp.LineSize, 2)
	if got := m.Report().L1DRefs - before; got != 2*16 {
		t.Fatalf("Direct block refs = %d, want 32 (one per 4-byte element)", got)
	}

	m = cpu.New(testConfig(0))
	ds, reg = mkDS(m)
	before = m.Report().L1DRefs
	Linear{}.LoadBlock(m, ds, reg.Base, 2)
	if got := m.Report().L1DRefs - before; got != 64 {
		t.Fatalf("Linear block refs = %d, want 64 (whole DS)", got)
	}

	m = cpu.New(testConfig(1))
	ds, reg = mkDS(m)
	BIA{}.LoadBlock(m, ds, reg.Base, 2) // cold: warms everything
	before = m.Report().L1DRefs
	BIA{}.LoadBlock(m, ds, reg.Base+8*memp.LineSize, 2)
	if got := m.Report().L1DRefs - before; got != 1 {
		t.Fatalf("warm BIA block refs = %d, want 1 (the CTLoad probe)", got)
	}
}

func TestLoadBlockTraceIndependence(t *testing.T) {
	// Two different secret block addresses → identical visible traces,
	// on a contiguous DS and on a gapped one (whose blocks of 4 lines
	// lie in its runs of 4 or more).
	run := func(strat Strategy, biaLevel int, blockLine int, gapped bool) string {
		m := cpu.New(testConfig(biaLevel))
		rec := &traceRecorder{}
		m.Hier.Subscribe(rec)
		if gapped {
			ds := gappedSet(m.Alloc.Alloc("matrix", 5*memp.PageSize/2))
			var blocks []memp.Addr
			for _, r := range ds.runs {
				for j := 0; j+4 <= r.n; j++ {
					blocks = append(blocks, r.base+memp.Addr(j*memp.LineSize))
				}
			}
			for i := 0; i < 6; i++ {
				strat.LoadBlock(m, ds, blocks[(blockLine+i*7)%len(blocks)], 4)
			}
			return rec.key()
		}
		reg := m.Alloc.Alloc("matrix", memp.PageSize)
		ds := FromRegion(reg)
		for i := 0; i < 6; i++ {
			strat.LoadBlock(m, ds, reg.Base+memp.Addr(((blockLine+i*7)%60)*memp.LineSize), 4)
		}
		return rec.key()
	}
	for _, c := range []struct {
		name     string
		strat    Strategy
		biaLevel int
	}{
		{"linear", Linear{}, 0},
		{"linear-vec", LinearVec{}, 0},
		{"bia", BIA{}, 1},
	} {
		for _, gapped := range []bool{false, true} {
			if run(c.strat, c.biaLevel, 3, gapped) != run(c.strat, c.biaLevel, 41, gapped) {
				t.Errorf("%s (gapped=%v): LoadBlock trace depends on block address", c.name, gapped)
			}
		}
	}
}

func TestLoadBlockArgumentValidation(t *testing.T) {
	m := cpu.New(testConfig(1))
	reg := m.Alloc.Alloc("matrix", memp.PageSize)
	ds := FromRegion(reg)
	for name, f := range map[string]func(){
		"unaligned":  func() { BIA{}.LoadBlock(m, ds, reg.Base+4, 1) },
		"zero-lines": func() { BIA{}.LoadBlock(m, ds, reg.Base, 0) },
		"overflow":   func() { BIA{}.LoadBlock(m, ds, reg.Base+63*memp.LineSize, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			f()
		}()
	}
}
