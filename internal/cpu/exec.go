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
// counter, cache level, BIA table and subscribed listener — the
// harness's trace-equivalence tests enforce this for every workload ×
// strategy.
//
// Replay has two regimes, after uncached runs, which are one step
// whatever the listeners (execUncached). With a listener that wants
// per-access events subscribed (attacker telemetry), every access
// takes the per-access path so event emission is reproduced exactly.
// Otherwise — the insecure and software-CT configurations, and since
// the batch paths grew a run-record snoop port also BIA-attached
// machines — whole runs go through Hierarchy.AccessBatch: one flat
// loop, the start-level probe inlined, no Result construction, no
// per-access event-filter checks, and the per-iteration bookkeeping
// (retire, load/store counts, streaming-hit cycle parity) applied in
// closed form per run rather than per access. Direct execution's DS
// sweeps (sweep.go) charge through the same two run functions.

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
	// The batched fast path is bit-exact unless someone observes
	// per-access events: the batch paths snoop hit/dirty edges to any
	// L1 listener (so a BIA's bitmaps stay exact) but skip EvAccess.
	fast := m.Hier.BatchSafe()
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
			m.execRun(memp.Addr(op.Addr), op.Stride, int(op.Arg), cache.Flags(op.Flags), fast)
		case trace.KRMW:
			m.execPre(op, int(op.Arg))
			m.execRMW(memp.Addr(op.Addr), op.Stride, int(op.Arg), cache.Flags(op.Flags), fast)
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

// batchable reports whether a run's accesses may take the no-event
// batched path.
func batchable(fast bool, flags cache.Flags) bool {
	return fast && flags&(cache.FlagUncached|flagBypassToBIA) == 0
}

// chargeBatch applies the cycle cost of a batch: start-level hits at
// either the start level's latency or, for streaming runs, the L1
// dual-port parity sequence (whose sum depends only on the hit count
// and the entry parity, not on which accesses hit), plus the misses'
// full latencies.
func (m *Machine) chargeBatch(startHits, missCycles int, streaming bool) {
	if streaming {
		if m.streamParity == 0 {
			m.C.Cycles += uint64((startHits + 1) / 2)
		} else {
			m.C.Cycles += uint64(startHits / 2)
		}
		m.streamParity ^= startHits & 1
	} else {
		m.C.Cycles += uint64(startHits * m.Hier.Level(1).Latency())
	}
	m.C.Cycles += uint64(missCycles)
}

// execUncached charges n uncached accesses (n load+store pairs when
// rmw) in one step: an uncached access bypasses every level, changes no
// cache state and emits no event, so whatever the listeners, the
// per-access loop would only retire each, count it as a load or a
// store, and charge it one DRAM read or write at the DRAM latency. It
// reports whether flags are uncached.
func (m *Machine) execUncached(n int, flags cache.Flags, rmw bool) bool {
	if flags&cache.FlagUncached == 0 {
		return false
	}
	loads, stores := n, 0
	if rmw {
		stores = n
	} else if flags&cache.FlagWrite != 0 {
		loads, stores = 0, n
	}
	m.retire(loads + stores)
	m.C.Loads += uint64(loads)
	m.C.Stores += uint64(stores)
	m.C.Cycles += uint64(m.Hier.Uncached(loads, false) + m.Hier.Uncached(stores, true))
	return true
}

// execRun charges n accesses at base, base+stride, ... with flags: a
// KRun record's accesses, or a direct sweep's loads (SweepLoad). An
// uncached run is one step (execUncached). With fast set and no bypass
// flag it is one AccessBatch; otherwise the per-access loop. No branch
// records.
func (m *Machine) execRun(base memp.Addr, stride int64, n int, flags cache.Flags, fast bool) {
	if m.execUncached(n, flags, false) {
		return
	}
	if batchable(fast, flags) {
		streaming := flags&flagStreaming != 0
		f := flags &^ flagStreaming
		m.retire(n)
		if f&cache.FlagWrite != 0 {
			m.C.Stores += uint64(n)
		} else {
			m.C.Loads += uint64(n)
		}
		hits, miss := m.Hier.AccessBatch(base, stride, n, f)
		m.chargeBatch(hits, miss, streaming)
		return
	}
	addr := base
	for k := 0; k < n; k++ {
		m.demand(addr, flags)
		addr += memp.Addr(stride)
	}
}

// execRMW charges n load+store pairs at base, base+stride, ...: a KRMW
// record's pairs, or a direct sweep's (SweepRMW). Branches as execRun.
func (m *Machine) execRMW(base memp.Addr, stride int64, n int, lf cache.Flags, fast bool) {
	if m.execUncached(n, lf, true) {
		return
	}
	if batchable(fast, lf) {
		streaming := lf&flagStreaming != 0
		f := lf &^ flagStreaming
		m.retire(2 * n)
		m.C.Loads += uint64(n)
		m.C.Stores += uint64(n)
		hits, miss := m.Hier.AccessBatchRMW(base, stride, n, f)
		m.chargeBatch(hits, miss, streaming)
		return
	}
	addr := base
	for k := 0; k < n; k++ {
		m.demand(addr, lf)
		m.demand(addr, lf|cache.FlagWrite)
		addr += memp.Addr(stride)
	}
}
