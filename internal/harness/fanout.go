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
// trace keys. One recording serves every geometry of a sweep, and a
// fan-out group also shares its *decode*: the stored stream is looked
// up (and, from disk, decoded) once and charged to a whole slice of
// machines (one per geometry, drawn from their pools), so an
// N-geometry group costs one decode pass instead of N, with per-config
// report anchors and checksum verification exactly as strict as for a
// single point (which is the same code, a group of one).
//
// Only share-keyed points fan out — one key, many configs. BIA-family
// strategies key per config (their streams are geometry-dependent), so
// their points run one by one through runTraced, as does any group the
// engine cannot serve whole: trace mode off, quarantined key, a stream
// that was never recorded (dead key), or a replay failure mid-group.
// Fan-out can therefore only ever change wall time, never a table cell.

// SetTraceFanout does nothing. Every replay is a fan-out group — a
// single point is a group of one — so there is no other regime to
// switch to.
//
// Deprecated: kept only so existing callers compile.
func SetTraceFanout(bool) {}

// RunWorkloadFanout runs one (workload, params, strategy) point across
// a group of machine configs, returning one report per config in input
// order. Share-keyed strategies decode the stored stream once and
// charge every config from it; everything else (and every fallback
// condition) runs the configs through RunWorkloadOn one by one, so the
// results are always identical to the serial path.
func RunWorkloadFanout(cfgs []cpu.Config, w workloads.Workload, p workloads.Params, s ct.Strategy) []cpu.Report {
	key := ""
	if _, shared, ok := strategyFingerprint(s); ok && shared {
		key = workloadTraceKey(w, p, s, 0, "")
	}
	return runFanout(cfgs, key, w.Name()+"/"+s.Name(),
		func() uint64 { return w.Reference(p) },
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
		func(cfg cpu.Config) cpu.Report { return RunKernelOn(cfg, k, p, s) })
}

// runFanout serves one shared-key point for a group of configs. The
// stream must already exist to fan out; on a miss the first config
// runs through the ordinary engine — which records under the
// single-flight leader election exactly as a serial sweep would — and
// the remaining configs fan out over the fresh recording. Any failure
// to serve the whole group degrades the unserved tail to per-config
// runTraced calls (which re-record, retry and quarantine with the
// usual fault tolerance).
func runFanout(cfgs []cpu.Config, key, label string, ref func() uint64, perConfig func(cpu.Config) cpu.Report) []cpu.Report {
	out := make([]cpu.Report, len(cfgs))
	start := 0
	if key != "" && len(cfgs) >= 2 && TraceModeNow() == TraceOn && !isQuarantined(key) {
		pools := make([]*cpu.Pool, len(cfgs))
		fps := make([]string, len(cfgs))
		for i, cfg := range cfgs {
			pools[i], fps[i] = poolFor(cfg)
		}
		e := lookupTrace(key)
		if e == nil {
			// Miss: run the first config through the ordinary engine so
			// the stream is recorded (or the recording leader waited on)
			// with all of runTraced's fault tolerance, then fan the rest
			// out.
			out[0] = perConfig(cfgs[0])
			start = 1
			e = lookupTrace(key)
		}
		if e == nil {
			// Dead, quarantined or aborted recording: nothing to fan out.
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
		// by tryReplay: the per-config path re-records and serves the
		// tail.
	}
	for i := start; i < len(cfgs); i++ {
		out[i] = perConfig(cfgs[i])
	}
	return out
}
