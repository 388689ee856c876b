package harness

import (
	"fmt"

	"ctbia/internal/cpu"
	"ctbia/internal/ct"
	"ctbia/internal/workloads"
)

// The geometry-sweep experiment: one workload/strategy point measured
// across several machine geometries. This is the sweep shape trace
// sharing exists for — the pure strategies' op/address streams are
// machine-independent, so with a trace directory the whole sweep makes
// one recording per (workload, params, strategy) and replays that single
// stream against every geometry, re-verified per config (checksum on
// every replay, report anchors per fingerprint). The BIA rows key per
// geometry as always, since CTLoad's bitmap reads make their streams
// config-dependent.

func init() {
	register(Experiment{
		ID:    "geosweep",
		Title: "Geometry sweep: overhead stability across cache shapes (shared-trace sweep)",
		Paper: "the Fig. 7 machine plus L1/LLC variants; one recording per (workload, params, strategy) serves every geometry",
		Run:   runGeoSweep,
	})
}

// GeoGeometry is one machine shape of the sweep. Config carries
// BIALevel 0 (the pure-strategy machine); the BIA rows copy it with
// BIALevel 1.
type GeoGeometry struct {
	Name   string
	Config cpu.Config
}

// GeoSweepGeometries returns the sweep's geometry ladder: the Table 1
// machine plus an L1-halved, an L1-doubled and an LLC-quartered
// variant. cmd/ctbench's benchmark and the CI smoke run sweep the same
// ladder, so the "one recording, N replays" assertion there covers
// exactly what this experiment measures.
func GeoSweepGeometries() []GeoGeometry {
	table1 := cpu.DefaultConfig()
	table1.BIALevel = 0
	l1Half := cpu.DefaultConfig()
	l1Half.BIALevel = 0
	l1Half.Levels[0].Size = 32 << 10
	l1Double := cpu.DefaultConfig()
	l1Double.BIALevel = 0
	l1Double.Levels[0].Size = 128 << 10
	llcQuarter := cpu.DefaultConfig()
	llcQuarter.BIALevel = 0
	llcQuarter.Levels[2].Size = 4 << 20
	return []GeoGeometry{
		{Name: "table1", Config: table1},
		{Name: "l1-32k", Config: l1Half},
		{Name: "l1-128k", Config: l1Double},
		{Name: "llc-4m", Config: llcQuarter},
	}
}

// geoSweepWorkloads returns the sweep's workload points (sized down
// under -quick like the other sweeps).
func geoSweepWorkloads(quick bool) []struct {
	w workloads.Workload
	p workloads.Params
} {
	histSize, binSize := 2000, 4000
	if quick {
		histSize, binSize = 500, 1000
	}
	return []struct {
		w workloads.Workload
		p workloads.Params
	}{
		{workloads.Histogram{}, workloads.Params{Size: histSize, Seed: 1}},
		{workloads.BinarySearch{}, workloads.Params{Size: binSize, Seed: 1}},
	}
}

// runGeoSweep measures the sweep grouped for fan-out: one group per
// (workload, strategy), each group charging every geometry of the
// ladder from a single decode pass of the shared stream (the BIA
// family keys per config, so each of its configs is a group of one). The
// table is assembled geometry-major, and every report is bit-identical
// to direct execution (the equivalence tests pin the rendered bytes),
// so the grouping changes wall time and decode passes only.
func runGeoSweep(o Options) *Table {
	geos := GeoSweepGeometries()
	wls := geoSweepWorkloads(o.Quick)
	t := &Table{ID: "geosweep",
		Title:   "execution-time overhead vs insecure baseline across machine geometries",
		Headers: []string{"workload/geometry", "L1d BIA", "CT", "CT-avx"}}
	strats := []struct {
		s   ct.Strategy
		bia bool
	}{
		{ct.Direct{}, false},
		{ct.BIA{}, true},
		{ct.Linear{}, false},
		{ct.LinearVec{}, false},
	}
	pureCfgs := make([]cpu.Config, len(geos))
	biaCfgs := make([]cpu.Config, len(geos))
	for i, g := range geos {
		pureCfgs[i] = g.Config
		biaCfgs[i] = g.Config
		biaCfgs[i].BIALevel = 1
	}
	// reports[wi*len(strats)+si][gi] = that workload x strategy group's
	// report under geometry gi.
	nGroups := len(wls) * len(strats)
	reports := make([][]cpu.Report, nGroups)
	errs := forEachIndexed(nGroups, o.Parallel, func(gi int) {
		wl := wls[gi/len(strats)]
		st := strats[gi%len(strats)]
		cfgs := pureCfgs
		if st.bia {
			cfgs = biaCfgs
		}
		reports[gi] = RunWorkloadFanout(cfgs, wl.w, wl.p, st.s)
	})
	for i := 0; i < len(geos)*len(wls); i++ {
		gi, wi := i/len(wls), i%len(wls)
		g, wl := geos[gi], wls[wi]
		label := fmt.Sprintf("%s_%d/%s", shortName(wl.w.Name()), wl.p.Size, g.Name)
		var pe *PointError
		if errs != nil {
			// A failed strategy group loses its reports for every
			// geometry, so all of this workload's rows fail together.
			for si := range strats {
				if e := errs[wi*len(strats)+si]; e != nil {
					pe = e
					break
				}
			}
		}
		if pe != nil {
			t.Fail(label, pe)
			continue
		}
		ins := reports[wi*len(strats)+0][gi]
		bia := reports[wi*len(strats)+1][gi]
		lin := reports[wi*len(strats)+2][gi]
		avx := reports[wi*len(strats)+3][gi]
		t.AddRow(label,
			ratio(bia.Cycles, ins.Cycles),
			ratio(lin.Cycles, ins.Cycles),
			ratio(avx.Cycles, ins.Cycles))
	}
	return t
}
