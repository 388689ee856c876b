// Command ctsec runs the security evaluation: the paper's Fig. 10
// per-set access-count test plus this repository's stronger full-trace
// equality check, across every workload and protected strategy. It
// exits non-zero if any protected configuration leaks.
package main

import (
	"flag"
	"fmt"
	"os"

	"ctbia/internal/attacker"
	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/harness"
	"ctbia/internal/memp"
	"ctbia/internal/obs"
	"ctbia/internal/workloads"
)

func traceFor(w workloads.Workload, strat ct.Strategy, biaLevel int, p workloads.Params) string {
	cfg := cpu.DefaultConfig()
	cfg.BIALevel = biaLevel
	m := cpu.New(cfg)
	tr := attacker.NewTrace(m.Hier)
	got := w.Run(m, strat, p)
	if want := w.Reference(p); got != want {
		fmt.Fprintf(os.Stderr, "FUNCTIONAL BUG: %s/%s checksum %#x want %#x\n", w.Name(), strat.Name(), got, want)
		os.Exit(1)
	}
	if obs.Enabled() {
		m.EmitMetrics(obs.Add)
	}
	return tr.Key()
}

func main() {
	samples := flag.Int("samples", 5, "number of random secrets per configuration")
	size := flag.Int("size", 1000, "workload size (dijkstra uses size/8 rounded to 16)")
	metrics := flag.Bool("metrics", false, "print the observability metrics snapshot as JSON after the evaluation")
	listen := flag.String("listen", "", "serve live introspection on this address during the run (/metrics, /metrics.json, /debug/pprof)")
	flag.Parse()

	// Flag misuse is exit 2, before any simulation starts.
	if *samples < 1 {
		fmt.Fprintf(os.Stderr, "ctsec: -samples %d: need at least one secret per configuration\n", *samples)
		os.Exit(2)
	}
	if *size < 1 {
		fmt.Fprintf(os.Stderr, "ctsec: -size %d: workload size must be positive\n", *size)
		os.Exit(2)
	}
	if *metrics || *listen != "" {
		obs.Arm()
	}
	if *listen != "" {
		srv, err := obs.Serve(*listen)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctsec: -listen: %v\n", err)
			os.Exit(2)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "ctsec: live introspection on http://%s/metrics\n", srv.Addr())
	}

	fmt.Println("== Fig. 10: per-cache-set access counts (histogram) ==")
	fig10, _ := harness.ByID("fig10")
	fmt.Print(fig10.Run(harness.Options{}).Render())
	fmt.Println()

	fmt.Println("== full-trace equality across secrets (stronger than Fig. 10) ==")
	strategies := []struct {
		s        ct.Strategy
		biaLevel int
	}{
		{ct.Linear{}, 0},
		{ct.LinearVec{}, 0},
		{ct.BIA{}, 1},
		{ct.BIA{}, 2},
	}
	leaks := 0
	for _, w := range workloads.All() {
		sz := *size
		if w.Name() == "dijkstra" {
			sz = ((*size / 8) / 16) * 16
			if sz < 16 {
				sz = 16
			}
		}
		for _, st := range strategies {
			base := ""
			leak := false
			for s := 0; s < *samples; s++ {
				p := workloads.Params{Size: sz, Seed: int64(1000 + 7*s), Ops: 8}
				key := traceFor(w, st.s, st.biaLevel, p)
				if s == 0 {
					base = key
				} else if key != base {
					leak = true
				}
			}
			verdict := "identical traces — no leak"
			if leak {
				verdict = "TRACES DIFFER — LEAK"
				leaks++
			}
			fmt.Printf("%-13s %-8s (biaL%d): %s\n", w.Name(), st.s.Name(), st.biaLevel, verdict)
		}
		// Sanity: the insecure version must visibly leak.
		a := traceFor(w, ct.Direct{}, 0, workloads.Params{Size: sz, Seed: 1, Ops: 8})
		b := traceFor(w, ct.Direct{}, 0, workloads.Params{Size: sz, Seed: 2, Ops: 8})
		if a == b {
			fmt.Printf("%-13s insecure: WARNING — traces did not differ (weak test?)\n", w.Name())
		} else {
			fmt.Printf("%-13s insecure: traces differ with the secret (expected)\n", w.Name())
		}
	}
	// Prime+Probe demo summary.
	fmt.Println("\n== Prime+Probe against one secret-dependent access ==")
	cfg := cpu.DefaultConfig()
	cfg.BIALevel = 0
	m := cpu.New(cfg)
	victim := m.Alloc.Alloc("victim", 4096)
	pp := attacker.NewPrimeProbe(m.Hier, 1, m.Alloc)
	pp.Prime()
	secretLine := 21
	victimAddr := victim.Base + memp.Addr(secretLine*memp.LineSize)
	m.Hier.Access(victimAddr, 0)
	hot := pp.HotSets(pp.Probe())
	fmt.Printf("victim touched line %d (set %d); attacker sees hot sets %v\n",
		secretLine, pp.SetOfVictim(victimAddr), hot)

	// The metrics dump lands before the verdict/exit so a leaking run
	// still reports what the simulated layers did.
	if *metrics {
		fmt.Println("\n== observability metrics ==")
		if err := obs.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "ctsec: metrics: %v\n", err)
		}
	}

	if leaks > 0 {
		fmt.Printf("\nRESULT: %d leaking configurations\n", leaks)
		os.Exit(1)
	}
	fmt.Println("\nRESULT: all protected configurations leak-free")
}
