package cpu

import (
	"ctbia/internal/cache"
	"ctbia/internal/memp"
	"ctbia/internal/trace"
)

// This file is the machine side of the trace-replay engine: recording
// hooks are in the primitive ops (Op, OpStream, access, the CT headers,
// WarmRegion, ResetStats, the scratchpad ops); ExecTrace re-executes a
// captured stream against a cold machine with bit-identical effects on
// every counter, cache level, BIA table and subscribed listener — the
// harness's trace-equivalence tests enforce this for every workload ×
// strategy.
//
// Replay has two regimes. With a listener that wants per-access
// events subscribed (attacker telemetry), every access re-enters the
// ordinary access() path so event emission is reproduced exactly.
// Otherwise — the insecure and software-CT configurations, and since
// the batch paths grew a run-record snoop port also BIA-attached
// machines — whole runs go through Hierarchy.AccessBatch: one flat
// loop, the start-level probe inlined, no Result construction, no
// per-access event-filter checks, and the per-iteration bookkeeping
// (retire, load/store counts, streaming-hit cycle parity) applied in
// closed form per run rather than per access.

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
			m.execRun(op, fast)
		case trace.KRMW:
			m.execRMW(op, fast)
		case trace.KCTLoad:
			m.ctLoadHdr(memp.Addr(op.Addr))
		case trace.KCTStore:
			m.ctStoreHdr(memp.Addr(op.Addr))
		case trace.KMacroStoreHdr:
			m.macroStoreHdr(memp.Addr(op.Addr))
		case trace.KScratchCopy:
			n := op.Arg
			m.retire(int(2 * n))
			m.C.Loads += n
			m.Hier.Stats.DRAMReads += n
			m.C.Cycles += n * uint64(m.Hier.DRAMLatency()+int(op.Flags))
		case trace.KScratchLoad:
			m.retire(int(op.Arg))
			m.C.Loads += op.Arg
			m.C.Cycles += op.Arg * uint64(op.Flags)
		case trace.KScratchStore:
			m.retire(int(op.Arg))
			m.C.Stores += op.Arg
			m.C.Cycles += op.Arg * uint64(op.Flags)
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

// execRun replays a KRun record: Arg equally-strided accesses with the
// fused per-iteration pre-ops.
func (m *Machine) execRun(op *trace.Op, fast bool) {
	n := int(op.Arg)
	m.execPre(op, n)
	flags := cache.Flags(op.Flags)
	if batchable(fast, flags) {
		streaming := flags&flagStreaming != 0
		f := flags &^ flagStreaming
		m.retire(n)
		if f&cache.FlagWrite != 0 {
			m.C.Stores += uint64(n)
		} else {
			m.C.Loads += uint64(n)
		}
		hits, miss := m.Hier.AccessBatch(memp.Addr(op.Addr), op.Stride, n, f)
		m.chargeBatch(hits, miss, streaming)
		return
	}
	addr := memp.Addr(op.Addr)
	for k := 0; k < n; k++ {
		m.access(addr, flags)
		addr += memp.Addr(op.Stride)
	}
}

// execRMW replays a KRMW record: Arg load+store pairs.
func (m *Machine) execRMW(op *trace.Op, fast bool) {
	n := int(op.Arg)
	m.execPre(op, n)
	lf := cache.Flags(op.Flags)
	if batchable(fast, lf) {
		streaming := lf&flagStreaming != 0
		f := lf &^ flagStreaming
		m.retire(2 * n)
		m.C.Loads += uint64(n)
		m.C.Stores += uint64(n)
		hits, miss := m.Hier.AccessBatchRMW(memp.Addr(op.Addr), op.Stride, n, f)
		m.chargeBatch(hits, miss, streaming)
		return
	}
	addr := memp.Addr(op.Addr)
	for k := 0; k < n; k++ {
		m.access(addr, lf)
		m.access(addr, lf|cache.FlagWrite)
		addr += memp.Addr(op.Stride)
	}
}
