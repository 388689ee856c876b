package ct

import (
	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// BIAMacro is the Sec. 6.2 extension: the same algorithms as BIA, but
// each page span executes as a single macro-operation inside the
// machine, so the existence/dirtiness bitmaps never appear in
// architectural registers — the defence against unprotected programs
// using CTLoad/CTStore as a cache oracle. Memory traffic and security
// are identical to BIA; the software loop overhead disappears into
// micro-code.
type BIAMacro struct{}

// Name implements Strategy.
func (BIAMacro) Name() string { return "bia-macro" }

// NeedsBIA implements Strategy.
func (BIAMacro) NeedsBIA() bool { return true }

// Load implements Strategy via MacroCTLoad per page span.
func (BIAMacro) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	w.Check()
	var ret uint64
	for _, span := range ds.Pages() {
		m.Op(opsSelect) // per-span macro-op dispatch + result select
		data, inPage := m.MacroCTLoad(span.Base, addr, span.Mask, w)
		if inPage {
			ret = data
		}
	}
	return ret
}

// Store implements Strategy via MacroCTStore per page span.
func (BIAMacro) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	w.Check()
	for _, span := range ds.Pages() {
		m.Op(opsSelect)
		m.MacroCTStore(span.Base, addr, span.Mask, v, w)
	}
}

// LoadBlock implements Strategy: macro loads per page guarantee the
// block's lines are present, then the bytes are extracted.
func (BIAMacro) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	for _, span := range ds.Pages() {
		m.Op(opsSelect)
		m.MacroCTLoad(span.Base, blockAddr, span.Mask, cpu.W64)
	}
	return readBlock(m, blockAddr, nLines)
}

var _ Strategy = BIAMacro{}
