package harness

import (
	"fmt"
	"os"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

// Fan-out replay: the sweep-side counterpart of config-independent
// trace keys, and the one place replay pays without a trace directory.
// One recording serves every geometry of a group: on a miss the first
// config records the stream and the rest are charged from that
// recording; with a trace directory a later group reads the key's file
// once and charges every config from it. Either way the stream is
// decoded once and charged to a whole slice of machines (one per
// geometry, drawn from their pools), so an N-geometry group costs one
// recording or one decode pass instead of N, with per-config report
// anchors and checksum verification exactly as strict as for a single
// point (which is the same code, a group of one).
//
// Only share-keyed points fan out — one key, many configs. BIA-family
// strategies key per config (their streams are geometry-dependent), so
// their points run one by one through runTraced, as does any group the
// engine cannot serve whole: trace mode off, quarantined key, an
// aborted recording (dead key), or a replay failure mid-group. Fan-out
// can therefore only ever change wall time, never a table cell.

// SetTraceFanout does nothing. Every replay is a fan-out group — a
// single point is a group of one — so there is no other regime to
// switch to.
//
// Deprecated: kept only so existing callers compile.
func SetTraceFanout(bool) {}

// RunWorkloadFanout runs one (workload, params, strategy) point across
// a group of machine configs, returning one report per config in input
// order. Share-keyed strategies charge every config from one recorded
// or stored stream; everything else (and every fallback condition) runs
// the configs through RunWorkloadOn one by one, so the results are
// always identical to the serial path.
func RunWorkloadFanout(cfgs []cpu.Config, w workloads.Workload, p workloads.Params, s ct.Strategy) []cpu.Report {
	key := ""
	if _, shared, ok := strategyFingerprint(s); ok && shared {
		key = workloadTraceKey(w, p, s, 0, "")
	}
	return runFanout(cfgs, key, w.Name()+"/"+s.Name(),
		func() uint64 { return w.Reference(p) },
		func(m *cpu.Machine) uint64 { return w.Run(m, s, p) },
		func(cfg cpu.Config) cpu.Report { return RunWorkloadOn(cfg, w, p, s) })
}

// RunKernelFanout is RunWorkloadFanout for the crypto kernels.
func RunKernelFanout(cfgs []cpu.Config, k ctcrypto.Kernel, p ctcrypto.Params, s ct.Strategy) []cpu.Report {
	key := ""
	if _, shared, ok := strategyFingerprint(s); ok && shared {
		key = kernelTraceKey(k, p, s, 0, "")
	}
	return runFanout(cfgs, key, k.Name()+"/"+s.Name(),
		func() uint64 { return k.Reference(p) },
		func(m *cpu.Machine) uint64 { return k.Run(m, s, p) },
		func(cfg cpu.Config) cpu.Report { return RunKernelOn(cfg, k, p, s) })
}

// runFanout serves one shared-key point for a group of configs. A
// stored stream (a file in the trace directory) fans out to the whole
// group. On a miss the first config records through sim, as one
// observed point under the key's single-flight: a worker that finds the
// key being recorded waits, then fans out over the leader's file or,
// with no directory to read, records for itself. The rest of the group
// fans out over the recording. Any failure to serve the whole
// group degrades the unserved tail to per-config runTraced calls (which
// re-record, retry and quarantine with the usual fault tolerance, or
// run direct without a directory).
func runFanout(cfgs []cpu.Config, key, label string, ref func() uint64, sim func(m *cpu.Machine) uint64, perConfig func(cpu.Config) cpu.Report) []cpu.Report {
	out := make([]cpu.Report, len(cfgs))
	start := 0
	if key != "" && len(cfgs) >= 2 && TraceModeNow() == TraceOn && !isQuarantined(key) {
		pools := make([]*cpu.Pool, len(cfgs))
		fps := make([]string, len(cfgs))
		for i, cfg := range cfgs {
			pools[i], fps[i] = poolFor(cfg)
		}
		e := lookupTrace(key)
		for e == nil && !isDead(key) {
			if recordOnce(key, func() {
				observePoint(label, func() { out[0], e = recordPoint(pools[0], key, label, fps[0], ref, sim) })
			}) {
				start = 1
				break
			}
			e = lookupTrace(key) // another worker recorded the key
		}
		if e == nil {
			// Dead key or aborted recording: nothing to fan out.
			if traceDebug {
				fmt.Fprintf(os.Stderr, "TRACEDBG fanout-miss %s\n", label)
			}
		} else if reps, ok := tryReplay(pools[start:], fps[start:], key, label, e, ref); ok {
			copy(out[start:], reps)
			// Every config served by the pass is one simulation point for
			// the observability layer, as runTraced counts a single point.
			for range reps {
				obs.NotePoint()
			}
			return out
		}
		// A stale or transiently failing entry was dropped (and booked)
		// by tryReplay: the per-config path serves the tail.
	}
	for i := start; i < len(cfgs); i++ {
		out[i] = perConfig(cfgs[i])
	}
	return out
}
