// Package harness defines and runs the reproduction experiments: one
// registered experiment per table and figure in the paper's evaluation,
// plus ablations for the design choices DESIGN.md calls out. Each
// experiment produces a rendered table; cmd/ctbench is the CLI front
// end and bench_test.go wraps them as Go benchmarks.
package harness

import (
	"fmt"
	"sort"
	"strings"

	"ctbia/internal/cpu"
	"ctbia/internal/resultcache"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier ("fig7a", "motivation", ...).
	ID string
	// Title describes the experiment.
	Title string
	// Paper states the expectation from the paper, for side-by-side
	// reading with the measured rows.
	Paper string
	// Headers and Rows are the measured data.
	Headers []string
	Rows    [][]string
	// Notes carry caveats (model differences, scaled workloads).
	Notes []string
	// Failures records points that could not be measured (their Rows
	// entries read FAILED). A table with failures is never cached, and
	// ctbench exits non-zero after rendering everything. Excluded from
	// JSON so cache entries and -json reports keep their layout.
	Failures []*PointError `json:"-"`
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Paper)
	}
	width := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		width[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			// Rows may carry more cells than Headers; extra cells get
			// no padding instead of indexing width out of range.
			if i < len(width) {
				fmt.Fprintf(&b, "%-*s", width[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tune experiment scale and execution.
type Options struct {
	// Quick shrinks problem sizes for fast runs (tests, smoke checks).
	Quick bool
	// Parallel is the worker count for RunAll and for the fan-out
	// inside the sweep experiments. Values <= 1 run everything
	// serially; RunAll and RunOne clamp values above GOMAXPROCS, where
	// extra workers only add scheduling overhead. Every data point owns its
	// own cpu.Machine (seeded RNGs and all state are per-machine), so
	// any Parallel value produces tables byte-identical to the serial
	// run.
	Parallel int
	// Cache, when non-nil, serves experiments from the
	// content-addressed result store and persists fresh results to it
	// (subject to the store's mode). See Lookup, Commit and CacheKey.
	// It is the one skip mechanism: a failed experiment is never
	// cached, so a re-run over the same store simulates exactly the
	// failed and missing experiments.
	Cache *resultcache.Store
	// Manifest is ignored: the result cache alone decides what a
	// re-run skips.
	//
	// Deprecated: kept only so existing callers compile.
	Manifest *Manifest
}

// Experiment is one reproducible table/figure.
type Experiment struct {
	ID    string
	Title string
	// Paper is the expected shape per the paper.
	Paper string
	// Run executes the experiment.
	Run func(o Options) *Table
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// canonicalOrder lists the experiments paper-first, ablations after;
// anything unlisted sorts to the end in registration order.
var canonicalOrder = []string{
	"config", "table2", "fig2", "motivation",
	"fig7a", "fig7b", "fig7c", "fig7d", "fig7e",
	"fig8", "fig9", "fig10",
	"placement", "threshold", "biasize", "pinning", "llcbia",
	"replacement", "contention", "crosscore", "relatedwork", "geosweep",
}

func orderOf(id string) int {
	for i, c := range canonicalOrder {
		if c == id {
			return i
		}
	}
	return len(canonicalOrder)
}

// Experiments returns all registered experiments, paper figures first,
// then the ablations.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderOf(out[i].ID) < orderOf(out[j].ID) })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q (try: %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists the registered experiment identifiers in canonical order.
func IDs() []string {
	exps := Experiments()
	out := make([]string, len(exps))
	for i, e := range exps {
		out[i] = e.ID
	}
	return out
}

// SimVersionSalt versions the simulator's observable behaviour for the
// result cache. Bump it in any PR that changes what an experiment
// would measure — timing model, cache/BIA semantics, workload code,
// experiment sizes, table formatting — so stale cached tables can
// never be served. Pure-performance changes (pooling, allocation
// elimination) that keep tables byte-identical do NOT need a bump.
const SimVersionSalt = "ctbia-sim-pr6-v1"

// strategySet names every ct.Strategy the experiments run, part of the
// cache identity: adding or renaming a strategy invalidates entries.
const strategySet = "insecure,bia@1,bia@2,bia@3,bia-macro,ct,ct-avx,preload,scratchpad"

// CacheKey is the content address of one experiment's result under the
// given options: the simulator version salt, the experiment identity,
// the size-relevant options, the Table 1 machine fingerprint and the
// strategy set. Parallelism is excluded — it never changes a cell.
// Experiments that build non-default machines (small-cache ablations,
// cross-core, sliced LLCs) hard-code those configs, so the salt covers
// them.
func CacheKey(e Experiment, o Options) string {
	return cacheKeySalted(SimVersionSalt, e, o)
}

// cacheKeySalted is CacheKey with the salt explicit, so tests can
// prove that a salt bump misses every entry stored under the old salt.
func cacheKeySalted(salt string, e Experiment, o Options) string {
	return resultcache.Key(
		salt,
		e.ID,
		fmt.Sprintf("quick=%v", o.Quick),
		cpu.DefaultConfig().Fingerprint(),
		strategySet,
	)
}

// ratio formats a/b as a multiplier.
func ratio(a, b uint64) string {
	if b == 0 {
		if a == 0 {
			return "1.00x"
		}
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(a)/float64(b))
}

// count formats an integer with thousands separators.
func count(v uint64) string {
	s := fmt.Sprintf("%d", v)
	var b strings.Builder
	for i, c := range s {
		if i > 0 && (len(s)-i)%3 == 0 {
			b.WriteByte(',')
		}
		b.WriteRune(c)
	}
	return b.String()
}
