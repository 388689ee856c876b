package cpu

import (
	"math/bits"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// A linearization sweep — every DS line of a software-CT access, the
// fetch loop of Alg. 2/3 — is the bulk of a protected configuration's
// work, and its stream is exactly what a trace's KRun and KRMW records
// hold. SweepLoad and SweepRMW charge one such stream the way ExecTrace
// charges the record: the per-iteration ALU ops in bulk, then the
// accesses through execRun/execRMW (one AccessBatch when the hierarchy
// allows it, the per-access loop otherwise). The bulk charge is exact
// for the reasons execPre gives. They move no data: the caller moves the
// one word its algorithm selects, uncharged, with ReadW or WriteW.

// SweepLoad charges n loads at base, base+stride, ..., each preceded by
// pre streaming ALU ops, with the access mode's flags. An attached
// recorder sees the same OpStream(pre), load, OpStream(pre), load, ...
// calls the per-line loop made, so a recording is unchanged.
func (m *Machine) SweepLoad(base memp.Addr, stride int64, n, pre int, mode AccessMode) {
	flags := m.modeFlags(mode)
	m.recordSweep(base, stride, n, pre, flags, false)
	m.streamOps(n * pre)
	m.execRun(base, stride, n, flags, m.Hier.BatchSafe())
}

// SweepRMW charges n load+store pairs at base, base+stride, ..., each
// pair preceded by pre streaming ALU ops: the read-modify-write body of
// a linearized store. Recording as SweepLoad. Under a mode that updates
// replacement state, a pair that hits in the L1 is one LRU touch, not
// two, as in replay: the same stamp order, one clock tick less. The
// strategies' store sweeps are all ModeNoLRU, so their stamps match the
// per-line loop's exactly.
func (m *Machine) SweepRMW(base memp.Addr, stride int64, n, pre int, mode AccessMode) {
	flags := m.modeFlags(mode)
	m.recordSweep(base, stride, n, pre, flags, true)
	m.streamOps(n * pre)
	m.execRMW(base, stride, n, flags, m.Hier.BatchSafe())
}

// recordSweep feeds an attached recorder a sweep's per-iteration calls.
// It runs first, so a negative op count panics before anything is
// charged, as in OpStream.
func (m *Machine) recordSweep(base memp.Addr, stride int64, n, pre int, flags cache.Flags, rmw bool) {
	if pre < 0 {
		panic("cpu: negative op count")
	}
	if m.rec == nil {
		return
	}
	addr := base
	for k := 0; k < n; k++ {
		if pre > 0 {
			m.rec.OpStream(pre)
		}
		m.rec.Access(uint64(addr), uint32(flags))
		if rmw {
			m.rec.Access(uint64(addr), uint32(flags|cache.FlagWrite))
		}
		addr += memp.Addr(stride)
	}
}

// SlotRun finds the lowest run of consecutive set bits of a nonzero
// line bitmap: the run's first slot, its length and its bits. The fetch
// loops of Alg. 2/3 charge one sweep per run of the lines they fetch.
func SlotRun(mask uint64) (slot uint, n int, run uint64) {
	slot = uint(bits.TrailingZeros64(mask))
	n = bits.TrailingZeros64(^(mask >> slot))
	return slot, n, (1<<uint(n) - 1) << slot
}
