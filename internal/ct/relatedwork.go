package ct

import (
	"ctbia/internal/cpu"
	"ctbia/internal/memp"
)

// This file implements the two related-work mitigations the paper
// positions itself against (Sec. 8), as Strategy values so they slot
// into every workload and experiment:
//
//   - Preload (SC-Eliminator style): pull the whole DS into the cache
//     before the access, then access directly. Cheap, but NOT secure —
//     "an attacker can evict the preloaded lines from the cache", after
//     which the direct access misses visibly. The test suite
//     demonstrates the break.
//   - ScratchpadStrategy (GhostRider style): copy the DS into a
//     software-managed scratchpad once and serve all accesses from it.
//     Fully secure (the scratchpad emits no cache events) but the area
//     must cover the WHOLE DS, versus the BIA's fixed 1 KiB.

// Preload is the SC-Eliminator-style mitigation. The optional Hook
// fires after the preload pass, where the failure-demonstration tests
// inject the attacker's evictions.
type Preload struct {
	Hook Hook
}

// Name implements Strategy.
func (Preload) Name() string { return "preload" }

// NeedsBIA implements Strategy.
func (Preload) NeedsBIA() bool { return false }

func (s Preload) preload(m *cpu.Machine, ds *LinSet) {
	for _, r := range ds.runs {
		m.SweepLoad(r.base, memp.LineSize, r.n, 2, cpu.ModeStreaming)
	}
	if s.Hook != nil {
		s.Hook(HookBeforeFetch, 0)
	}
}

// Load implements Strategy: preload everything, then access directly.
// If nothing was evicted in between, the direct access hits and is
// invisible to eviction-based attackers; if the attacker intervened,
// the miss refills the line — a visible, secret-dependent footprint.
func (s Preload) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	w.Check()
	s.preload(m, ds)
	m.Op(opsDirect)
	return m.LoadW(addr, w)
}

// Store implements Strategy.
func (s Preload) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	w.Check()
	s.preload(m, ds)
	m.Op(opsDirect)
	m.StoreW(addr, v, w)
}

// LoadBlock implements Strategy.
func (s Preload) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	s.preload(m, ds)
	for i := 0; i < nLines*memp.LineSize/4; i++ {
		m.OpStream(opsDirect)
		m.LoadModeW(blockAddr+memp.Addr(4*i), cpu.W32, cpu.ModeStreaming)
	}
	return readBlock(m, blockAddr, nLines)
}

var _ Strategy = Preload{}

// ScratchpadStrategy is the GhostRider-style mitigation. It is
// stateful: the first access to a DS copies it into the machine's
// scratchpad (one-time cost), after which every access costs one
// scratchpad cycle and emits no cache events whatsoever.
type ScratchpadStrategy struct {
	sp *cpu.Scratchpad
	in map[*LinSet]bool
}

// NewScratchpadStrategy wraps a machine scratchpad.
func NewScratchpadStrategy(sp *cpu.Scratchpad) *ScratchpadStrategy {
	return &ScratchpadStrategy{sp: sp, in: make(map[*LinSet]bool)}
}

// Name implements Strategy.
func (*ScratchpadStrategy) Name() string { return "scratchpad" }

// NeedsBIA implements Strategy.
func (*ScratchpadStrategy) NeedsBIA() bool { return false }

func (s *ScratchpadStrategy) ensure(m *cpu.Machine, ds *LinSet) {
	if s.in[ds] {
		return
	}
	for _, la := range ds.Lines() {
		m.CopyIn(s.sp, la, memp.LineSize)
	}
	s.in[ds] = true
}

// Load implements Strategy.
func (s *ScratchpadStrategy) Load(m *cpu.Machine, ds *LinSet, addr memp.Addr, w cpu.Width) uint64 {
	ds.mustContain(addr)
	w.Check()
	s.ensure(m, ds)
	m.Op(opsDirect)
	return m.ScratchLoad(s.sp, addr, w)
}

// Store implements Strategy.
func (s *ScratchpadStrategy) Store(m *cpu.Machine, ds *LinSet, addr memp.Addr, v uint64, w cpu.Width) {
	ds.mustContain(addr)
	w.Check()
	s.ensure(m, ds)
	m.Op(opsDirect)
	m.ScratchStore(s.sp, addr, v, w)
}

// LoadBlock implements Strategy.
func (s *ScratchpadStrategy) LoadBlock(m *cpu.Machine, ds *LinSet, blockAddr memp.Addr, nLines int) []byte {
	checkBlock(m, ds, blockAddr, nLines)
	s.ensure(m, ds)
	for i := 0; i < nLines*memp.LineSize/4; i++ {
		m.Op(opsDirect)
		m.ScratchLoad(s.sp, blockAddr+memp.Addr(4*i), cpu.W32)
	}
	return readBlock(m, blockAddr, nLines)
}

var _ Strategy = (*ScratchpadStrategy)(nil)
