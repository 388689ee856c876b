package cpu

import (
	"ctbia/internal/cache"
	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

// This file is the machine side of the trace-replay engine: recording
// hooks are in the primitive ops (Op, OpStream, access, the sweeps, the
// CT headers, WarmRegion, ResetStats; the scratchpad ops refuse to run
// while a recorder is attached); ExecTrace re-executes a captured
// stream against a cold machine with bit-identical effects on every
// counter, cache level (LRU stamps included), BIA table and subscribed
// listener — the harness's trace-equivalence tests enforce this for
// every workload × strategy.
//
// A run record is charged in one step: uncached, whatever the
// listeners, by its DRAM count, and otherwise by one
// Hierarchy.AccessBatch, which picks the closed form, the batch pass or
// the accesses one by one and leaves the caches and listeners as the
// accesses one by one would. The per-iteration bookkeeping (retire,
// load/store counts, streaming-hit cycle parity) is applied in closed
// form per run rather than per access. Direct execution's DS sweeps
// (sweep.go) charge through the same run function.

// SetRecorder attaches (or, with nil, detaches) a trace recorder. Every
// stat-relevant primitive executed while attached is appended to r.
// Recording does not change the machine's behaviour; it only observes.
func (m *Machine) SetRecorder(r *trace.Recorder) { m.rec = r }

// The trace package folds read-modify-write pairs assuming the write
// flag is bit 0; this fails to compile if cache.FlagWrite moves.
var _ [1]struct{} = [cache.FlagWrite]struct{}{}

// ExecTrace replays a compressed operation stream recorded by a
// trace.Recorder. The machine should be in the state recording started
// from (cold, for harness traces); replaying while a recorder is
// attached is a bug. It is the machine's only replay entry point.
func (m *Machine) ExecTrace(ops []trace.Op) {
	if m.rec != nil {
		panic("cpu: ExecTrace on a machine with a recorder attached")
	}
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case trace.KOps:
			m.Op(int(op.Arg))
		case trace.KOpStream:
			m.OpStream(int(op.Arg))
		case trace.KAccess:
			m.execPre(op, 1)
			m.access(memp.Addr(op.Addr), cache.Flags(op.Flags))
		case trace.KRun:
			m.execPre(op, int(op.Arg))
			m.execRun(memp.Addr(op.Addr), op.Stride, int(op.Arg), cache.Flags(op.Flags), false)
		case trace.KRMW:
			m.execPre(op, int(op.Arg))
			m.execRun(memp.Addr(op.Addr), op.Stride, int(op.Arg), cache.Flags(op.Flags), true)
		case trace.KCTLoad:
			m.ctLoadHdr(memp.Addr(op.Addr))
		case trace.KCTStore:
			m.ctStoreHdr(memp.Addr(op.Addr))
		case trace.KMacroStoreHdr:
			m.macroStoreHdr(memp.Addr(op.Addr))
		case trace.KWarm:
			m.WarmRegion(memp.Addr(op.Addr), op.Arg)
		case trace.KReset:
			m.ResetStats()
		default:
			panic("cpu: unknown trace op kind")
		}
	}
}

// execPre charges the fused per-iteration ALU pre-ops of a record, in
// bulk. Bulking is exact: Op/OpStream accounting is additive and the
// wide-issue slop carry is untouched by accesses, so interleaving order
// cannot change any counter.
func (m *Machine) execPre(op *trace.Op, iters int) {
	if op.PreN == 0 {
		return
	}
	total := int(op.PreN) * iters
	if op.Pre == trace.PreStream {
		m.OpStream(total)
	} else {
		m.Op(total)
	}
}

// chargeBatch applies the cycle cost of a batch: hits at its start
// level at either that level's latency or, for streaming runs, the L1
// dual-port parity sequence (whose sum depends only on the hit count
// and the entry parity, not on which accesses hit), plus the misses'
// full latencies.
func (m *Machine) chargeBatch(start, startHits, missCycles int, streaming bool) {
	if streaming {
		if m.streamParity == 0 {
			m.C.Cycles += uint64((startHits + 1) / 2)
		} else {
			m.C.Cycles += uint64(startHits / 2)
		}
		m.streamParity ^= startHits & 1
	} else {
		m.C.Cycles += uint64(startHits * m.Hier.Level(start).Latency())
	}
	m.C.Cycles += uint64(missCycles)
}

// execRun charges n accesses at base, base+stride, ... with flags, each
// a load+store pair when rmw: a KRun or KRMW record's accesses, or a
// direct sweep's. An uncached run bypasses every level, changes no
// cache state and emits no event, so whatever the listeners each access
// is one DRAM read or write at the DRAM latency; any other run is one
// AccessBatch from the level the flags start at. No branch records.
func (m *Machine) execRun(base memp.Addr, stride int64, n int, flags cache.Flags, rmw bool) {
	loads, stores := n, 0
	if rmw {
		stores = n
	} else if flags&cache.FlagWrite != 0 {
		loads, stores = 0, n
	}
	m.retire(loads + stores)
	m.C.Loads += uint64(loads)
	m.C.Stores += uint64(stores)
	if flags&cache.FlagUncached != 0 {
		m.C.Cycles += uint64(m.Hier.Uncached(loads, false) + m.Hier.Uncached(stores, true))
		return
	}
	start := 1
	if flags&flagBypassToBIA != 0 {
		start = m.cfg.BIALevel
	}
	hits, miss := m.Hier.AccessBatch(start, base, stride, n, flags&^(flagBypassToBIA|flagStreaming), rmw)
	m.chargeBatch(start, hits, miss, flags&flagStreaming != 0)
}
