package cpu

import (
	"math/bits"

	"ctbia/internal/memp"
)

// This file implements the paper's Sec. 6.2 proposal, left as future
// work there: packing the whole of Algorithms 2 and 3 into X86-64
// macro-operations so that "the sensitive bitmap reading instructions
// CTLoad/CTStore cannot be called directly, and the loaded
// existence/dirtiness information remains invisible to users".
//
// MacroCTLoad and MacroCTStore execute one page span of the respective
// algorithm entirely inside the "hardware": the existence/dirtiness
// bitmaps never reach an architectural register — the methods do not
// return them, and the sequencing (probe, mask, fetch loop, blends) is
// performed by the machine. Cost model: identical memory traffic to the
// software algorithms, but the per-iteration software overhead (bit
// scanning, address generation, cmovs) retires as micro-code — charged
// at streaming width without instruction-fetch cost, which is the
// architectural point of macro-fusion.

// MacroCTLoad performs Algorithm 2 for one page span: addr is the
// (secret) target address, pageBase the span's page, bitmask the DS
// Bitmask of the page. It returns the loaded value at addr's offset if
// addr lies in this page (data is only meaningful then; the inPage
// result says so). Misses in the DS are fetched exactly like the
// software algorithm — same footprint, same security argument.
func (m *Machine) MacroCTLoad(pageBase, addr memp.Addr, bitmask uint64, w Width) (data uint64, inPage bool) {
	w.Check()
	if m.BIA == nil {
		panic("cpu: MacroCTLoad on a machine without BIA")
	}
	if m.BIA.ChunkShift() != memp.PageShift {
		panic("cpu: macro ops are defined at page granularity (M=12)")
	}
	addrToRead := pageBase.Page() | memp.Addr(addr.PageOffset())
	if m.rec != nil {
		// The macro-op header's accounting is exactly a CTLoad header's.
		m.rec.CTLoad(uint64(addrToRead))
	}
	existence, hit := m.ctLoadHdr(addrToRead) // the macro-op itself
	if hit {
		data = m.ReadW(addrToRead, w)
	}
	tofetch := bitmask &^ existence
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	// Micro-coded fetch loop: memory traffic identical to Alg. 2
	// lines 8-11; sequencing cost folded into the streaming model. The
	// fetched run covering addrToRead supplies the data.
	for tf := tofetch; tf != 0; {
		slot, n, run := SlotRun(tf)
		tf &^= run
		m.SweepLoad(memp.GenAddr(pageBase, slot, addr), memp.LineSize, n, 0, macroFetchMode)
		if run&(1<<addrToRead.LineInPage()) != 0 {
			data = m.ReadW(addrToRead, w)
		}
	}
	return data, memp.SamePage(addr, pageBase)
}

// macroFetchMode is how the micro-coded loops touch the DS: the software
// algorithms' fetch mode.
const macroFetchMode = ModeNoLRU | ModeBypassToBIA | ModeStreaming

// MacroCTStore performs Algorithm 3 for one page span: the CTLoad-
// before-CTStore corruption guard, the conditional CTStore, and the
// read-modify-write of the non-dirty DS lines, all as one operation.
func (m *Machine) MacroCTStore(pageBase, addr memp.Addr, bitmask uint64, v uint64, w Width) {
	w.Check()
	if m.BIA == nil {
		panic("cpu: MacroCTStore on a machine without BIA")
	}
	addrToWrite := pageBase.Page() | memp.Addr(addr.PageOffset())
	if m.rec != nil {
		m.rec.MacroStoreHdr(uint64(addrToWrite))
	}

	// Internal CTLoad, then CTStore (Alg. 3 lines 7 and 9). The probes
	// move no data, so the stored word is chosen after both: v on the
	// target's own page, else what the CTLoad read (zero on its miss).
	hitLd, dirtiness, wrote := m.macroStoreHdr(addrToWrite)
	var stTmp uint64
	if hitLd {
		stTmp = m.ReadW(addrToWrite, w)
	}
	if memp.SamePage(addr, pageBase) {
		stTmp = v
	}
	if wrote {
		m.WriteW(addrToWrite, stTmp, w)
	}

	// Micro-coded RMW loop (Alg. 3 lines 12-15): v lands only if a
	// run writes back addr's own line.
	tofetch := bitmask &^ dirtiness
	m.NoteDSSpan(bits.OnesCount64(bitmask)-bits.OnesCount64(tofetch), bits.OnesCount64(bitmask))
	for tf := tofetch; tf != 0; {
		slot, n, run := SlotRun(tf)
		tf &^= run
		m.SweepRMW(memp.GenAddr(pageBase, slot, addr), memp.LineSize, n, 0, macroFetchMode)
		if memp.SamePage(addr, pageBase) && run&(1<<addr.LineInPage()) != 0 {
			m.WriteW(addr, v, w)
		}
	}
}
