package harness

import (
	"slices"
	"testing"

	"ctbia/internal/attacker"
	"ctbia/internal/bia"
	"ctbia/internal/cache"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/ctcrypto"
	"ctbia/internal/memp"
	"ctbia/internal/workloads"
)

// The reset-equivalence tests are the safety net under the machine
// pool: a Reset machine must be indistinguishable from a fresh one for
// every workload × strategy the experiments run — same checksum, same
// cpu.Report, same BIA statistics, and the same per-set telemetry
// vector an attacker-model SetCounter would record. A divergence
// anywhere here means pooling could silently change a published table.

// resetRow is one machine config with a strategy to run on it.
type resetRow struct {
	name string
	s    ct.Strategy
	cfg  cpu.Config
}

// resetStrategies spans the Table 1 configurations the experiments
// compare.
var resetStrategies = []resetRow{
	{"insecure", ct.Direct{}, tableConfig(0)},
	{"bia-l1", ct.BIA{}, tableConfig(1)},
	{"bia-l2", ct.BIA{}, tableConfig(2)},
	{"bia-llc", ct.BIA{}, tableConfig(3)},
	{"bia-macro", ct.BIAMacro{}, tableConfig(1)},
	{"ct", ct.Linear{}, tableConfig(0)},
	{"ct-avx", ct.LinearVec{}, tableConfig(0)},
	{"preload", ct.Preload{}, tableConfig(0)},
}

// ablationResets are the other machines the ablations draw from their
// pools, each under the BIA: the small hierarchy with each L1
// replacement policy (Random reseeds its RNG on Reset), the inclusive
// cross-core machine, llcbia's 4-slice LLC with the BIA in it at chunk
// shift 9, and biasize's 2-entry BIA.
var ablationResets = func() []resetRow {
	var rows []resetRow
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.Random} {
		cfg := smallCacheConfig(1)
		cfg.Levels[0].Policy = pol
		rows = append(rows, resetRow{"small-" + pol.String(), ct.BIA{}, cfg})
	}
	tiny := tableConfig(1)
	tiny.BIA = bia.Config{Entries: 2, Ways: 2, Latency: 1}
	return append(rows,
		resetRow{"crosscore", ct.BIA{}, crossCoreConfig(1)},
		resetRow{"sliced-llc", ct.BIA{}, slicedLLCConfig(9, 9)},
		resetRow{"bia-2-entries", ct.BIA{}, tiny})
}()

// resetSize picks a quick-but-nontrivial size per workload.
func resetSize(w workloads.Workload) int {
	if w.Name() == "dijkstra" {
		return 32
	}
	return 500
}

// dirty runs an unrelated workload/seed on m so the machine carries
// state — warm caches, dirty lines, BIA entries, allocator regions,
// telemetry subscriptions, pinned L1 lines as the pinning ablation
// leaves them, a flipped inclusion knob — that Reset must fully shed.
func dirty(t *testing.T, m *cpu.Machine, s ct.Strategy) {
	t.Helper()
	attacker.NewSetCounter(m.Hier, 1) // stale subscription Reset must drop
	w := workloads.Heappop{}
	w.Run(m, s, workloads.Params{Size: 300, Seed: 99})
	evictL1(m)
	reg := m.Alloc.Alloc("pinned", 4*memp.LineSize)
	for a := reg.Base; a < reg.Base+memp.Addr(reg.Size); a += memp.LineSize {
		m.Hier.Access(a, 0)
		m.Hier.Level(1).Pin(a)
	}
	if m.Hier.Level(1).PinnedLines() == 0 {
		t.Fatal("dirty pinned no L1 line")
	}
	m.Hier.Inclusive = !m.Hier.Inclusive
}

// evictL1 streams a region twice the L1's size through m, so every L1
// set evicts and the replacement state (the clock, Random's RNG) moves.
func evictL1(m *cpu.Machine) {
	l1 := m.Hier.Level(1)
	reg := m.Alloc.Alloc("evict", 2*uint64(l1.Sets()*l1.Ways())*memp.LineSize)
	for a := reg.Base; a < reg.Base+memp.Addr(reg.Size); a += memp.LineSize {
		m.Hier.Access(a, 0)
	}
}

// requireResetClean fails unless pooled, Reset after dirty and then run
// like fresh, matches fresh in its inclusion knob and every cache
// level's contents and holds no pinned line. Both machines evict their
// L1 first, so replacement state Reset failed to restore shows too.
func requireResetClean(t *testing.T, label string, fresh, pooled *cpu.Machine) {
	t.Helper()
	evictL1(fresh)
	evictL1(pooled)
	if fresh.Hier.Inclusive != pooled.Hier.Inclusive {
		t.Errorf("%s: inclusive=%v after Reset, want %v", label, pooled.Hier.Inclusive, fresh.Hier.Inclusive)
	}
	for i := 1; i <= fresh.Hier.Levels(); i++ {
		if n := pooled.Hier.Level(i).PinnedLines(); n != 0 {
			t.Errorf("%s: L%d holds %d pinned lines after Reset", label, i, n)
		}
		if !fresh.Hier.SnapshotLevel(i).Equal(pooled.Hier.SnapshotLevel(i)) {
			t.Errorf("%s: L%d contents diverged", label, i)
		}
	}
}

func TestResetEquivalenceWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		p := workloads.Params{Size: resetSize(w), Seed: 1}
		for _, st := range slices.Concat(resetStrategies, ablationResets) {
			fresh := cpu.New(st.cfg)
			scFresh := attacker.NewSetCounter(fresh.Hier, 1)
			sumFresh := w.Run(fresh, st.s, p)
			repFresh := fresh.Report()

			pooled := cpu.New(st.cfg)
			dirty(t, pooled, st.s)
			pooled.Reset()
			scPooled := attacker.NewSetCounter(pooled.Hier, 1)
			sumPooled := w.Run(pooled, st.s, p)
			repPooled := pooled.Report()

			label := w.Name() + "/" + st.name
			if sumFresh != sumPooled {
				t.Errorf("%s: checksum fresh %#x != pooled %#x", label, sumFresh, sumPooled)
			}
			if repFresh != repPooled {
				t.Errorf("%s: report diverged\nfresh:  %v\npooled: %v", label, repFresh, repPooled)
			}
			if fresh.C != pooled.C {
				t.Errorf("%s: core counters diverged\nfresh:  %+v\npooled: %+v", label, fresh.C, pooled.C)
			}
			if fresh.HasBIA() && fresh.BIA.Stats != pooled.BIA.Stats {
				t.Errorf("%s: BIA stats diverged\nfresh:  %+v\npooled: %+v", label, fresh.BIA.Stats, pooled.BIA.Stats)
			}
			if !attacker.Equal(scFresh.Counts(), scPooled.Counts()) {
				t.Errorf("%s: per-set telemetry vectors diverged", label)
			}
			requireResetClean(t, label, fresh, pooled)
		}
	}
}

func TestResetEquivalenceKernels(t *testing.T) {
	kernelStrategies := []resetRow{
		{"insecure", ct.Direct{}, tableConfig(0)},
		{"bia-l1", ct.BIA{}, tableConfig(1)},
		{"ct", ct.Linear{}, tableConfig(0)},
	}
	for _, k := range ctcrypto.All() {
		p := ctcrypto.Params{Blocks: 4, Seed: 1}
		for _, st := range slices.Concat(kernelStrategies, ablationResets) {
			fresh := cpu.New(st.cfg)
			sumFresh := k.Run(fresh, st.s, p)
			repFresh := fresh.Report()

			pooled := cpu.New(st.cfg)
			dirty(t, pooled, st.s)
			pooled.Reset()
			sumPooled := k.Run(pooled, st.s, p)
			repPooled := pooled.Report()

			label := k.Name() + "/" + st.name
			if sumFresh != sumPooled {
				t.Errorf("%s: checksum fresh %#x != pooled %#x", label, sumFresh, sumPooled)
			}
			if repFresh != repPooled {
				t.Errorf("%s: report diverged\nfresh:  %v\npooled: %v", label, repFresh, repPooled)
			}
			requireResetClean(t, label, fresh, pooled)
		}
	}
}

// TestResetEquivalenceReusedPool runs a workload through cpu.Pool twice
// end-to-end (the exact RunWorkload code path) and pins that the second
// (recycled) run reports identically to the first (fresh) run.
func TestResetEquivalenceReusedPool(t *testing.T) {
	cfg := cpu.DefaultConfig()
	cfg.BIALevel = 1
	pool := cpu.NewPool(cfg)
	w := workloads.Histogram{}
	p := workloads.Params{Size: 700, Seed: 3}

	m1 := pool.Get()
	sum1 := w.Run(m1, ct.BIA{}, p)
	rep1 := m1.Report()
	pool.Put(m1)

	m2 := pool.Get()
	if m2 != m1 {
		t.Log("pool handed back a different machine (GC reclaimed); equivalence still checked")
	}
	sum2 := w.Run(m2, ct.BIA{}, p)
	rep2 := m2.Report()
	pool.Put(m2)

	if sum1 != sum2 || rep1 != rep2 {
		t.Errorf("pooled rerun diverged: sums %#x/%#x\nfirst:  %v\nsecond: %v", sum1, sum2, rep1, rep2)
	}
}

// TestResetSubsetInvariant re-checks the BIA subset-of-truth invariant
// on a machine that has been Reset and re-run: the bitmap must mirror
// only the post-reset cache state, never a previous life's.
func TestResetSubsetInvariant(t *testing.T) {
	m := cpu.New(tableConfig(1))
	w := workloads.Permutation{}
	w.Run(m, ct.BIA{}, workloads.Params{Size: 400, Seed: 5})
	m.Reset()
	w.Run(m, ct.BIA{}, workloads.Params{Size: 250, Seed: 6})
	if err := m.BIA.CheckSubset(m.Hier); err != nil {
		t.Fatalf("subset invariant after reset: %v", err)
	}
}
