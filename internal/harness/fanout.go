package harness

import (
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/workloads"
)

// Fan-out: every simulation point enters the trace engine here, as a
// group of machine configs, and runGroup (trace.go) serves each group.
// A single point (RunWorkload, RunKernel, RunWorkloadOn) is a group of
// one, and one fan-out call is one group: a traceable point's key
// leaves the machine out, so one recording or one decode pass of its
// stream is charged to every geometry of the call, and an untraceable
// one (the BIA family among them) runs direct on each. Per-config
// report anchors and checksum verification are the same for every
// group size, so fan-out can only ever change wall time, never a table
// cell.

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
// order, each identical to a direct run on that config. A traceable
// point is one group under its config-free key; a geometry-dependent
// one (the BIA family) runs direct on every config.
func RunWorkloadFanout(cfgs []cpu.Config, w workloads.Workload, p workloads.Params, s ct.Strategy) []cpu.Report {
	return runGroup(cfgs, workloadTraceKey(w, p, s), w.Name()+"/"+s.Name(),
		func() uint64 { return w.Reference(p) },
		func(m *cpu.Machine) uint64 { return w.Run(m, s, p) })
}

// RunKernelFanout is RunWorkloadFanout for the crypto kernels.
func RunKernelFanout(cfgs []cpu.Config, k ctcrypto.Kernel, p ctcrypto.Params, s ct.Strategy) []cpu.Report {
	return runGroup(cfgs, kernelTraceKey(k, p, s), k.Name()+"/"+s.Name(),
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
	return runGroup([]cpu.Config{cfg}, "", label, ref, sim)[0]
}
