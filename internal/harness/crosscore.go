package harness

import (
	"fmt"
	"slices"

	"ctbia/internal/attacker"
	"ctbia/internal/cache"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/memp"
)

// The cross-core experiment exercises the second sharing scenario of
// the paper's threat model (Sec. 2.4): "the attacker and the victim
// could be running on different cores, in which case they only share
// the LLC". With an inclusive LLC the attacker's evictions reach the
// victim's private caches; the BIA algorithms must (and do) stay
// leak-free in that setting too.

func init() {
	register(Experiment{
		ID:    "crosscore",
		Title: "threat model: cross-core Prime+Probe on an inclusive LLC",
		Paper: "Sec. 2.4: attacker on another core, sharing only the LLC; the defence is placement-agnostic",
		Run:   runCrossCore,
	})
}

// crossCoreConfig is a small inclusive hierarchy whose 512-set LLC is
// the attacker's target, with the BIA at biaLevel (0 = none).
func crossCoreConfig(biaLevel int) cpu.Config {
	return cpu.Config{
		Levels: []cache.Config{
			{Name: "L1d", Size: 8 << 10, Ways: 2, Latency: 2},
			{Name: "L2", Size: 32 << 10, Ways: 4, Latency: 15},
			{Name: "LLC", Size: 128 << 10, Ways: 4, Latency: 41}, // 512 sets
		},
		DRAMLatency: 200,
		BIA:         cpu.DefaultConfig().BIA,
		BIALevel:    biaLevel,
		Inclusive:   true,
	}
}

func runCrossCore(o Options) *Table {
	t := &Table{ID: "crosscore",
		Title:   "cross-core Prime+Probe (inclusive LLC) against one secret-indexed lookup",
		Headers: []string{"victim", "secret", "victim LLC set", "attacker hot sets", "recovered"}}

	// attack primes the LLC, lets the victim make one load of its
	// secret line (insecure at biaLevel 0, else through the BIA) and
	// probes. It returns the victim line's LLC set, the probe times and
	// the sets the attacker finds hot. The victim region is never
	// written, so the load reads zero and the point's reference is 0.
	attack := func(biaLevel, secretLine int) (victimSet int, probe, hot []int) {
		runPoint(crossCoreConfig(biaLevel), fmt.Sprintf("crosscore/L%d/line %d", biaLevel, secretLine),
			func() uint64 { return 0 },
			func(m *cpu.Machine) uint64 {
				victim := m.Alloc.Alloc("victim", 2*memp.PageSize)
				pp := attacker.NewCrossCorePrimeProbe(m.Hier, m.Alloc)
				pp.Prime()
				addr := victim.Base + memp.Addr(secretLine*memp.LineSize)
				var v uint64
				if biaLevel == 0 {
					v = uint64(m.Load32(addr))
				} else {
					v = ct.BIA{}.Load(m, ct.FromRegion(victim), addr, cpu.W32)
				}
				victimSet, probe = pp.SetOfVictim(addr), pp.Probe()
				hot = pp.HotSets(probe)
				return v
			})
		return victimSet, probe, hot
	}

	secrets := []int{17, 99}
	t.addRows(o.Parallel, []string{"insecure", "insecure"}, func(i int) []string {
		vs, _, hot := attack(0, secrets[i])
		return []string{fmt.Sprintf("line %d", secrets[i]), fmt.Sprintf("%d", vs),
			fmt.Sprintf("%v", hot), fmt.Sprintf("%v", slices.Contains(hot, vs))}
	})
	// Protected victim: the probe vector must be identical across
	// secrets (no per-set comparison can distinguish them).
	t.addRows(o.Parallel, []string{"bia"}, func(int) []string {
		_, pa, _ := attack(1, secrets[0])
		_, pb, _ := attack(1, secrets[1])
		return []string{"line 17 vs 99", "—", fmt.Sprintf("probe vectors identical: %v", slices.Equal(pa, pb)), "false"}
	})
	t.Notes = append(t.Notes,
		"inclusive LLC: the attacker's priming back-invalidates the victim's private caches, so the insecure victim leaks even across cores; the BIA victim's footprint is secret-independent and the attack learns nothing")
	return t
}
