package cpu

import (
	"fmt"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// writeFlag aliases the cache store flag for brevity in this file.
const writeFlag = cache.FlagWrite

// Width is an access width in bytes (1, 2, 4 or 8). The timing model
// charges all widths identically (one cache access); width only matters
// for data movement.
type Width int

// Supported access widths.
const (
	W8  Width = 1
	W16 Width = 2
	W32 Width = 4
	W64 Width = 8
)

// Check panics on a width other than 1, 2, 4 or 8. Every accessor
// checks before it charges anything; the DS sweeps take no width, so the
// strategies driving them call Check first.
func (w Width) Check() {
	switch w {
	case W8, W16, W32, W64:
	default:
		panic(fmt.Sprintf("cpu: invalid access width %d", int(w)))
	}
}

// ReadW returns the w-wide word at addr from backing memory, charging
// and recording nothing: the data movement of an access whose cost was
// charged on its own, such as the one word a DS sweep selects.
func (m *Machine) ReadW(addr memp.Addr, w Width) uint64 {
	switch w {
	case W8:
		return uint64(m.Mem.Read8(addr))
	case W16:
		return uint64(m.Mem.Read16(addr))
	case W32:
		return uint64(m.Mem.Read32(addr))
	default:
		return m.Mem.Read64(addr)
	}
}

// WriteW stores the w-wide word v at addr in backing memory, charging
// and recording nothing (see ReadW).
func (m *Machine) WriteW(addr memp.Addr, v uint64, w Width) {
	switch w {
	case W8:
		m.Mem.Write8(addr, byte(v))
	case W16:
		m.Mem.Write16(addr, uint16(v))
	case W32:
		m.Mem.Write32(addr, uint32(v))
	default:
		m.Mem.Write64(addr, v)
	}
}

// LoadW performs a normal load of the given width.
func (m *Machine) LoadW(addr memp.Addr, w Width) uint64 {
	w.Check()
	m.access(addr, 0)
	return m.ReadW(addr, w)
}

// StoreW performs a normal store of the given width.
func (m *Machine) StoreW(addr memp.Addr, v uint64, w Width) {
	w.Check()
	m.access(addr, m.modeFlags(0)|writeFlag)
	m.WriteW(addr, v, w)
}

// LoadModeW is LoadW with access-mode control (the protected runtime's
// follow-up DS accesses use NoLRU and, for lower-level BIAs, bypass).
func (m *Machine) LoadModeW(addr memp.Addr, w Width, mode AccessMode) uint64 {
	w.Check()
	m.access(addr, m.modeFlags(mode))
	return m.ReadW(addr, w)
}

// StoreModeW is StoreW with access-mode control.
func (m *Machine) StoreModeW(addr memp.Addr, v uint64, w Width, mode AccessMode) {
	w.Check()
	m.access(addr, m.modeFlags(mode)|writeFlag)
	m.WriteW(addr, v, w)
}

// CTLoadW is CTLoad64 at the given data width.
func (m *Machine) CTLoadW(addr memp.Addr, w Width) (data uint64, existence uint64) {
	w.Check()
	if m.BIA == nil {
		panic("cpu: CTLoad on a machine without BIA")
	}
	if m.rec != nil {
		m.rec.CTLoad(uint64(addr))
	}
	existence, hit := m.ctLoadHdr(addr)
	if hit {
		data = m.ReadW(addr, w)
	}
	return data, existence
}

// CTStoreW is CTStore64 at the given data width.
func (m *Machine) CTStoreW(addr memp.Addr, v uint64, w Width) (dirtiness uint64) {
	w.Check()
	if m.BIA == nil {
		panic("cpu: CTStore on a machine without BIA")
	}
	if m.rec != nil {
		m.rec.CTStore(uint64(addr))
	}
	dirtiness, wrote := m.ctStoreHdr(addr)
	if wrote {
		m.WriteW(addr, v, w)
	}
	return dirtiness
}

// The CT headers below are a CT instruction's whole effect on the
// machine's statistics, BIA and caches. Direct execution and ExecTrace
// both call them, so a replay matches the direct run bit for bit; the
// data movement, which no statistic sees, stays with the direct callers.

// ctLoadHdr charges a CTLoad (or MacroCTLoad) header at addr: one
// retired micro-op and a CTLoad probe. It returns the BIA's existence
// bitmap and whether the probe hit.
func (m *Machine) ctLoadHdr(addr memp.Addr) (existence uint64, hit bool) {
	m.retire(1)
	m.C.CTLoads++
	existence, _, hit = m.ctProbe(addr, false)
	return existence, hit
}

// ctStoreHdr charges a CTStore header at addr: one retired micro-op and
// a CTStore probe. It returns the BIA's dirtiness bitmap and whether the
// probe wrote.
func (m *Machine) ctStoreHdr(addr memp.Addr) (dirtiness uint64, wrote bool) {
	m.retire(1)
	m.C.CTStores++
	_, dirtiness, wrote = m.ctProbe(addr, true)
	return dirtiness, wrote
}

// macroStoreHdr charges a MacroCTStore header at addr: one retired
// macro-op, its internal CTLoad probe, then its CTStore probe.
func (m *Machine) macroStoreHdr(addr memp.Addr) (hitLd bool, dirtiness uint64, wrote bool) {
	m.retire(1)
	m.C.CTStores++
	_, _, hitLd = m.ctProbe(addr, false)
	_, dirtiness, wrote = m.ctProbe(addr, true)
	return hitLd, dirtiness, wrote
}

// ctProbe is one CT probe at addr: the BIA lookup (installing the
// page's entry on a miss), the hierarchy's CTLoad or CTStore probe at
// the BIA's level, the probe's outcome (see Counters.CTProbeHits), and
// the larger of the probe's and the BIA's latency.
func (m *Machine) ctProbe(addr memp.Addr, store bool) (existence, dirtiness uint64, hit bool) {
	existence, dirtiness = m.BIA.LookupOrInstall(addr)
	var cyc int
	if store {
		hit, cyc = m.Hier.CTProbeStore(m.cfg.BIALevel, addr)
	} else {
		hit, cyc = m.Hier.CTProbeLoad(m.cfg.BIALevel, addr)
	}
	if hit {
		m.C.CTProbeHits++
	} else {
		m.C.CTProbeMisses++
	}
	m.C.Cycles += uint64(max(cyc, m.BIA.Latency()))
	return existence, dirtiness, hit
}
