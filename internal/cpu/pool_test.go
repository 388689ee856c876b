package cpu

import (
	"runtime"
	"testing"

	"ctbia/internal/memp"
)

// TestPoolRecyclesMachines pins the pool contract: a recycled machine
// comes back reset (cold caches, zeroed counters) and Get never hands
// out a machine built from a different config.
func TestPoolRecyclesMachines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BIALevel = 2
	p := NewPool(cfg)

	m := p.Get()
	if m.BIA == nil {
		t.Fatal("pool machine missing BIA despite BIALevel=2 config")
	}
	for i := 0; i < 2048; i++ {
		m.Store64(memp.Addr(i*64)%(1<<20), uint64(i))
	}
	if m.C == (Counters{}) {
		t.Fatal("warm-up left counters zero; test is vacuous")
	}
	p.Put(m)

	got := p.Get()
	if got.C != (Counters{}) {
		t.Errorf("recycled machine has dirty counters: %+v", got.C)
	}
	if r := got.Report(); r != (New(cfg)).Report() {
		t.Errorf("recycled machine report differs from a fresh machine's: %v", r)
	}
	p.Put(got)
}

// TestPoolConfigIsolation checks that pools with different configs
// never cross-contaminate: a machine from the no-BIA pool has no BIA.
func TestPoolConfigIsolation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BIALevel = 0
	p0 := NewPool(cfg)
	m := p0.Get()
	if m.BIA != nil {
		t.Error("no-BIA pool handed out a machine with a BIA")
	}
	p0.Put(m)
}

// TestPoolKeepsOneSpare pins what a pool holds: its one spare survives
// a GC, so a serial reuser never rebuilds, and a second machine put
// back while the spare is held is dropped, so the next Get after the
// spare builds again.
func TestPoolKeepsOneSpare(t *testing.T) {
	p := NewPool(DefaultConfig())
	a, b := p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	runtime.GC()
	built := MachinesBuilt()
	if got := p.Get(); got != a {
		t.Error("Get after a GC did not return the spare")
	}
	if MachinesBuilt() != built {
		t.Error("Get rebuilt while the pool held a spare")
	}
	if got := p.Get(); got == b {
		t.Error("pool kept a second machine beside its spare")
	}
	if MachinesBuilt() != built+1 {
		t.Errorf("second Get built %d machines, want 1", MachinesBuilt()-built)
	}
}
