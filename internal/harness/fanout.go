package harness

import (
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/workloads"
)

// Fan-out: every simulation point enters the trace engine here, as a
// group of machine configs that share one trace key, and runGroup
// (trace.go) serves each group. A single point (RunWorkload, RunKernel,
// RunWorkloadOn) is a group of one. A sweep's configs split into runs
// that share a key: for the pure strategies, whose keys leave the
// machine out, that is every config, so one recording or one decode
// pass of the stream is charged to every geometry of the sweep; the
// BIA family keys per config (their streams are geometry-dependent), so
// each of their configs is a group of one. Per-config report anchors
// and checksum verification are the same for every group size, so
// fan-out can only ever change wall time, never a table cell.

// SetTraceFanout does nothing. Every replay is a fan-out group — a
// single point is a group of one — so there is no other regime to
// switch to.
//
// Deprecated: kept only so existing callers compile.
func SetTraceFanout(bool) {}

// TraceMode is the argument of SetTraceMode, which does nothing: the
// trace directory (SetTraceDir) is the engine's one switch.
//
// Deprecated: kept only so existing callers compile.
type TraceMode int

// The two TraceMode values SetTraceMode ignores.
//
// Deprecated: kept only so existing callers compile.
const (
	TraceOn TraceMode = iota
	TraceOff
)

// SetTraceMode does nothing. Without a trace directory every point runs
// direct; with one, every traceable point records into it and replays
// from it.
//
// Deprecated: kept only so existing callers compile.
func SetTraceMode(TraceMode) {}

// RunWorkloadFanout runs one (workload, params, strategy) point across
// a group of machine configs, returning one report per config in input
// order, each identical to a direct run on that config.
func RunWorkloadFanout(cfgs []cpu.Config, w workloads.Workload, p workloads.Params, s ct.Strategy) []cpu.Report {
	return runGroups(cfgs, w.Name()+"/"+s.Name(),
		func(biaLevel int, fp string) string { return workloadTraceKey(w, p, s, biaLevel, fp) },
		func() uint64 { return w.Reference(p) },
		func(m *cpu.Machine) uint64 { return w.Run(m, s, p) })
}

// RunKernelFanout is RunWorkloadFanout for the crypto kernels.
func RunKernelFanout(cfgs []cpu.Config, k ctcrypto.Kernel, p ctcrypto.Params, s ct.Strategy) []cpu.Report {
	return runGroups(cfgs, k.Name()+"/"+s.Name(),
		func(biaLevel int, fp string) string { return kernelTraceKey(k, p, s, biaLevel, fp) },
		func() uint64 { return k.Reference(p) },
		func(m *cpu.Machine) uint64 { return k.Run(m, s, p) })
}

// runPoint runs sim on one cold machine of cfg as a group of one with
// no trace key, so the engine always runs it direct: the machine comes
// from cfg's pool, sim's checksum is checked against ref, and the
// machine is harvested and observed like any other point. It is how an
// ablation that reads more of the machine than its report simulates:
// sim runs the program, copies out the extra state its table prints
// and returns the program's checksum.
func runPoint(cfg cpu.Config, label string, ref func() uint64, sim func(m *cpu.Machine) uint64) cpu.Report {
	return runGroups([]cpu.Config{cfg}, label, func(int, string) string { return "" }, ref, sim)[0]
}

// runGroups draws each config's machine pool, splits cfgs into runs of
// consecutive configs with the same trace key (keyOf maps a config's
// BIA level and fingerprint to it) and serves each run as one group.
func runGroups(cfgs []cpu.Config, label string, keyOf func(biaLevel int, fp string) string, ref func() uint64, sim func(m *cpu.Machine) uint64) []cpu.Report {
	pools := make([]*cpu.Pool, len(cfgs))
	fps := make([]string, len(cfgs))
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		pools[i], fps[i] = poolFor(cfg)
		keys[i] = keyOf(cfg.BIALevel, fps[i])
	}
	out := make([]cpu.Report, len(cfgs))
	for i := 0; i < len(cfgs); {
		j := i + 1
		for j < len(cfgs) && keys[j] == keys[i] {
			j++
		}
		runGroup(out[i:j], pools[i:j], fps[i:j], keys[i], label, ref, sim)
		i = j
	}
	return out
}
