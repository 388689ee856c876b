package cpu

import (
	"math/bits"

	"ctbia/internal/cache"
	"ctbia/internal/memp"
)

// A linearization sweep — every DS line of a software-CT access, the
// fetch loop of Alg. 2/3 — is the bulk of a protected configuration's
// work, and its stream is exactly what a trace's KRun and KRMW records
// hold. SweepLoad, SweepRMW and SweepVec charge one such stream the way
// ExecTrace charges the record: the ALU ops in bulk, then the accesses
// through execRun, one AccessBatch. The bulk charge is exact for the
// reasons execPre gives. They move no data: the caller moves the one
// word its algorithm selects, uncharged, with ReadW or WriteW.

// SweepLoad charges n loads at base, base+stride, ..., each preceded by
// pre streaming ALU ops, with the access mode's flags. An attached
// recorder sees the same OpStream(pre), load, OpStream(pre), load, ...
// calls the per-line loop made, so a recording is unchanged.
func (m *Machine) SweepLoad(base memp.Addr, stride int64, n, pre int, mode AccessMode) {
	m.sweep(base, stride, 0, n, 1, pre, mode, false)
}

// SweepRMW charges n load+store pairs at base, base+stride, ..., each
// pair preceded by pre streaming ALU ops: the read-modify-write body of
// a linearized store. Recording as SweepLoad.
func (m *Machine) SweepRMW(base memp.Addr, stride int64, n, pre int, mode AccessMode) {
	m.sweep(base, stride, 0, n, 1, pre, mode, true)
}

// SweepVec charges a vector loop's sweep over n consecutive lines from
// base, lanes lines per vector: a bundle of streaming ALU ops before
// each line whose index in the whole sweep is a multiple of lanes (the
// first line's index is first), and each line's load, or load+store
// pair when rmw. An attached recorder sees the loop's per-bundle
// OpStream and per-line access calls, so a recording is unchanged.
func (m *Machine) SweepVec(base memp.Addr, first, n, lanes, bundle int, mode AccessMode, rmw bool) {
	m.sweep(base, memp.LineSize, first, n, lanes, bundle, mode, rmw)
}

// sweep is the sweeps' one body: pre streaming ALU ops before each
// iteration k with (first+k) a multiple of lanes, then its accesses.
func (m *Machine) sweep(base memp.Addr, stride int64, first, n, lanes, pre int, mode AccessMode, rmw bool) {
	flags := m.modeFlags(mode)
	m.recordSweep(base, stride, first, n, lanes, pre, flags, rmw)
	bundles := n
	if lanes > 1 {
		// The multiples of lanes in [first, first+n).
		bundles = (first+n+lanes-1)/lanes - (first+lanes-1)/lanes
	}
	m.streamOps(pre * bundles)
	m.execRun(base, stride, n, flags, rmw)
}

// recordSweep feeds an attached recorder a sweep's per-iteration calls.
// It runs first, so a negative op count or a bad lane split panics
// before anything is charged, as in OpStream.
func (m *Machine) recordSweep(base memp.Addr, stride int64, first, n, lanes, pre int, flags cache.Flags, rmw bool) {
	if pre < 0 {
		panic("cpu: negative op count")
	}
	if lanes <= 0 || first < 0 {
		panic("cpu: sweep lanes must be positive and the first index not negative")
	}
	if m.rec == nil {
		return
	}
	addr := base
	for k := 0; k < n; k++ {
		if pre > 0 && (first+k)%lanes == 0 {
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
