package cpu

// NoteDSSpan records one protected-DS page span: total is the DS lines
// the span covers (what a bitmap-less implementation touches) and
// skipped is how many of them the existence/dirtiness bitmap avoided.
// Called by the strategy sweep loops and the macro-ops; cheap plain
// increments, never replayed (see DSStats).
func (m *Machine) NoteDSSpan(skipped, total int) {
	m.DS.LinesSkipped += uint64(skipped)
	m.DS.LinesTotal += uint64(total)
	m.DS.Spans++
}

// EmitMetrics enumerates every statistic the machine and its memory
// system collected, as flat dotted names — the harvest hook the harness
// feeds into the observability registry (m.EmitMetrics(obs.Add)) after
// a run, before the machine returns to its pool. The machine model
// itself never imports the observability layer; this callback shape is
// the whole coupling.
func (m *Machine) EmitMetrics(emit func(name string, v uint64)) {
	emit("cpu.cycles", m.C.Cycles)
	emit("cpu.insts", m.C.Insts)
	emit("cpu.l1i_refs", m.C.L1IRefs)
	emit("cpu.loads", m.C.Loads)
	emit("cpu.stores", m.C.Stores)
	emit("cpu.ct_loads", m.C.CTLoads)
	emit("cpu.ct_stores", m.C.CTStores)
	emit("cpu.ct_probe_hits", m.C.CTProbeHits)
	emit("cpu.ct_probe_misses", m.C.CTProbeMisses)

	emit("bia.ds_lines_skipped", m.DS.LinesSkipped)
	emit("bia.ds_lines_total", m.DS.LinesTotal)
	emit("bia.ds_spans", m.DS.Spans)

	for i := 1; i <= m.Hier.Levels(); i++ {
		level := m.cfg.Levels[i-1].Name
		m.Hier.Level(i).Stats.Each(func(name string, v uint64) {
			emit("cache."+level+"."+name, v)
		})
	}
	m.Hier.Path.Each(func(name string, v uint64) {
		emit("path."+name, v)
	})
	emit("mem.dram_reads", m.Hier.Stats.DRAMReads)
	emit("mem.dram_writes", m.Hier.Stats.DRAMWrites)
	emit("mem.page_hits", m.Mem.PageHits)
	emit("mem.page_misses", m.Mem.PageMisses)

	if m.BIA != nil {
		m.BIA.Stats.Each(func(name string, v uint64) {
			emit("bia."+name, v)
		})
	}
}
