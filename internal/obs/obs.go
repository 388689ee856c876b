// Package obs is the simulator's zero-cost-when-disabled observability
// layer: a process-wide registry of named counters and histograms, a
// span/timeline tracer that renders a whole ctbench run
// as a Chrome trace-event file (openable in Perfetto), progress
// accounting for long sweeps, and an HTTP endpoint serving expvar,
// pprof and Prometheus text exposition.
//
// Like internal/faultinject, the package is armed explicitly; disarmed
// (the default), every probe compiled into the hot layers costs a
// single atomic load and allocates nothing — the repository's
// alloc-budget benchmarks enforce that the access and replay paths
// stay zero-alloc with the layer present but disarmed, and the
// experiment tables are byte-identical either way (observation never
// feeds back into simulation).
//
// Counter names intern once into dense IDs, each backed by one atomic
// cell; producers that update a counter often intern it up front and
// add through the handle (AddID), the rest add by name.
//
// The simulator's layers do not push into this package directly: the
// machine model keeps its existing per-machine statistics and the
// harness harvests them into the registry (cpu.Machine.EmitMetrics)
// after each completed run, so internal/cpu and below never import
// obs. Pull-only producers (the trace engine, the result cache)
// register a Source instead and are read at snapshot time.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// armed gates every push-side probe. Snapshot/export always work —
// reading a disarmed registry just sees whatever was collected while
// armed (or nothing).
var armed atomic.Bool

// Arm enables metric collection.
func Arm() { armed.Store(true) }

// Disarm disables metric collection (the default state).
func Disarm() { armed.Store(false) }

// Enabled reports whether metric collection is armed. Hot call sites
// with harvest work to do (building metric names, reading clocks)
// check it first; the package's own Add/Observe probes re-check it, so
// forgetting the guard costs allocations, never correctness.
func Enabled() bool { return armed.Load() }

// ID is the dense handle of an interned metric name. Resolve it once
// at registration time (Intern) and use it on every AddID — the map
// lookup happens exactly once per name, not once per update. The zero
// value is a valid ID (the first interned name); a negative ID (Intern's
// answer once the table is full) is ignored by AddID.
type ID int32

// nameTab interns metric names to dense IDs.
var nameTab = struct {
	mu   sync.RWMutex
	ids  map[string]ID
	list []string // index = ID
}{ids: make(map[string]ID)}

// Intern registers name and returns its dense ID (the existing ID when
// the name is already known), or -1 when the name is new and the table
// already holds its 65,536 names: a name past the cap is dropped, never
// counted, so no input can crash the registry. Safe for concurrent use;
// the read path is an RLock + map hit.
func Intern(name string) ID {
	nameTab.mu.RLock()
	id, ok := nameTab.ids[name]
	nameTab.mu.RUnlock()
	if ok {
		return id
	}
	nameTab.mu.Lock()
	defer nameTab.mu.Unlock()
	if id, ok = nameTab.ids[name]; ok {
		return id
	}
	id = ID(len(nameTab.list))
	if int(id) >= countChunks*countChunkSize {
		return -1
	}
	nameTab.ids[name] = id
	nameTab.list = append(nameTab.list, name)
	return id
}

// Counter cells live in fixed-position chunks hanging off a spine of
// atomic pointers: a chunk is installed once (CAS) and never moves, so
// adds and concurrent snapshots need no coordination as the name table
// grows.
const (
	countChunkBits = 10
	countChunkSize = 1 << countChunkBits // counters per chunk
	countChunks    = 64                  // spine length: 65536 names max
)

type countChunk [countChunkSize]atomic.Uint64

var counts [countChunks]atomic.Pointer[countChunk]

// counter returns the cell for id, installing its chunk on first touch.
func counter(id ID) *atomic.Uint64 {
	ci, off := int(id)>>countChunkBits, int(id)&(countChunkSize-1)
	ch := counts[ci].Load()
	if ch == nil {
		ch = new(countChunk)
		if !counts[ci].CompareAndSwap(nil, ch) {
			ch = counts[ci].Load()
		}
	}
	return &ch[off]
}

// AddID increments the counter behind an interned handle. Disarmed it
// is a single atomic load; armed and warm it is one atomic add with
// zero allocations and no name lookup. Negative IDs are ignored.
func AddID(id ID, v uint64) {
	if !armed.Load() || id < 0 {
		return
	}
	counter(id).Add(v)
}

// Add increments the named counter by v. Disarmed it is a single atomic
// load; armed it also pays one name interning (RLock + map hit), and a
// name the full table cannot take is dropped. The signature matches
// cpu.Machine.EmitMetrics's emit callback, so a whole machine harvests
// with m.EmitMetrics(obs.Add).
func Add(name string, v uint64) {
	if !armed.Load() {
		return
	}
	if id := Intern(name); id >= 0 {
		counter(id).Add(v)
	}
}

// histBuckets is the bucket count of a power-of-two histogram: bucket
// i holds values v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i).
const histBuckets = 65

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int { return bits.Len64(v) }

// Histogram counts observations in power-of-two buckets, exported as
// cumulative le_* counters plus count and sum — enough resolution to
// see a latency distribution's shape without per-observation storage.
type Histogram struct {
	name string
	// Accumulation cells: bucket i holds values with bits.Len64(v) == i.
	buckets    [histBuckets]atomic.Uint64
	count, sum atomic.Uint64
	// leNames precomputes the exported bucket key for every bucket
	// index, so merging a snapshot allocates no strings.
	leNames   [histBuckets]string
	countName string
	sumName   string
	// qNames are the export-time quantile summary keys (p50/p95/p99).
	// They appear only in WriteJSON/WritePrometheus output, never in
	// Snapshot, so Delta and MergeFlat stay exact.
	qNames [len(quantileQs)]string
}

var histograms = struct {
	mu  sync.Mutex
	all []*Histogram
}{}

// NewHistogram registers a power-of-two-bucket histogram under name.
// Call once per name at package init; duplicate names return the
// existing histogram.
func NewHistogram(name string) *Histogram {
	histograms.mu.Lock()
	defer histograms.mu.Unlock()
	for _, h := range histograms.all {
		if h.name == name {
			return h
		}
	}
	h := &Histogram{name: name}
	for i := range h.leNames {
		h.leNames[i] = fmt.Sprintf("%s.le_%d", name, boundOf(i))
	}
	h.countName = name + ".count"
	h.sumName = name + ".sum"
	for i, q := range quantileQs {
		h.qNames[i] = fmt.Sprintf("%s.p%d", name, int(q*100))
	}
	histograms.all = append(histograms.all, h)
	return h
}

// registeredHistograms snapshots the registration list (registration is
// rare; the copy keeps callers off histograms.mu while they walk keys).
func registeredHistograms() []*Histogram {
	histograms.mu.Lock()
	all := append([]*Histogram(nil), histograms.all...)
	histograms.mu.Unlock()
	return all
}

// Observe records one value. Disarmed it is a single atomic load;
// armed it is three atomic adds with zero allocations.
func (h *Histogram) Observe(v uint64) {
	if !armed.Load() {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Source is a pull-side metrics producer: called at snapshot time with
// an emit callback. The trace engine and result cache register sources
// so their internal counters appear in every export without the hot
// paths pushing per-event.
type Source func(emit func(name string, v uint64))

var sources = struct {
	mu  sync.Mutex
	fns []Source
}{}

// RegisterSource adds a pull-side producer to every future snapshot.
// A Source must not call Snapshot/SnapshotInto or RegisterSource.
func RegisterSource(s Source) {
	sources.mu.Lock()
	sources.fns = append(sources.fns, s)
	sources.mu.Unlock()
}

// snapMu serializes snapshot merges so the shared emitter below needs
// no per-call closure (a top-level func value allocates nothing).
var (
	snapMu  sync.Mutex
	snapDst map[string]uint64
)

func snapEmit(name string, v uint64) { snapDst[name] = v }

// Snapshot returns every known metric as a flat name->value map:
// counters, histogram decompositions (name.count, name.sum,
// name.le_<bound> cumulative buckets) and registered sources.
func Snapshot() map[string]uint64 {
	return SnapshotInto(make(map[string]uint64))
}

// SnapshotInto is Snapshot filling a caller-owned map: dst is cleared,
// filled and returned. Reusing one map across calls keeps a polling
// exporter's steady state allocation-free — map writes to existing
// keys allocate nothing, and the fill builds no strings (bucket names
// are precomputed, counter names interned).
func SnapshotInto(dst map[string]uint64) map[string]uint64 {
	snapMu.Lock()
	defer snapMu.Unlock()
	clear(dst)
	snapDst = dst
	defer func() { snapDst = nil }()

	// Counters: every interned name, including zero-valued ones. The
	// name table only grows while armed (disarmed adds don't intern),
	// so a name appears once touched and stays.
	nameTab.mu.RLock()
	names := nameTab.list
	nameTab.mu.RUnlock()
	for id, n := range names {
		var v uint64
		if ch := counts[id>>countChunkBits].Load(); ch != nil {
			v = ch[id&(countChunkSize-1)].Load()
		}
		dst[n] = v
	}

	// Histograms: per-bucket counts become cumulative le_* keys.
	histograms.mu.Lock()
	for _, h := range histograms.all {
		count := h.count.Load()
		if count == 0 {
			continue
		}
		dst[h.countName] = count
		dst[h.sumName] = h.sum.Load()
		var cum uint64
		for i := range h.buckets {
			b := h.buckets[i].Load()
			if b == 0 {
				continue
			}
			cum += b
			dst[h.leNames[i]] = cum
		}
	}
	histograms.mu.Unlock()

	sources.mu.Lock()
	for _, fn := range sources.fns {
		fn(snapEmit)
	}
	sources.mu.Unlock()
	return dst
}

// boundOf maps a bits.Len64 bucket index to its exclusive upper bound.
func boundOf(i int) uint64 {
	if i >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << uint(i)
}

// quantileQs are the tail summaries appended to exports for every
// registered histogram with observations.
var quantileQs = [...]float64{0.50, 0.95, 0.99}

// appendQuantiles injects p50/p95/p99 summary keys for every registered
// histogram present in snap. The reported value is the exclusive upper
// bound of the smallest bucket whose cumulative count reaches the
// quantile rank — conservative within one power of two, which is the
// histogram's resolution anyway. Export-time only: Snapshot itself
// never contains quantile keys, so deltas and merges stay exact.
func appendQuantiles(snap map[string]uint64) {
	for _, h := range registeredHistograms() {
		count := snap[h.countName]
		if count == 0 {
			continue
		}
		for qi, q := range quantileQs {
			rank := uint64(float64(count) * q)
			if rank < 1 {
				rank = 1
			}
			var cum uint64
			for i := 0; i < histBuckets; i++ {
				v, ok := snap[h.leNames[i]]
				if !ok {
					continue
				}
				cum = v
				if cum >= rank {
					snap[h.qNames[qi]] = boundOf(i)
					break
				}
			}
			if cum < rank {
				// Rounding put the rank past the last bucket; the max
				// bucket bound is still the honest answer.
				snap[h.qNames[qi]] = boundOf(histBuckets - 1)
			}
		}
	}
}

// Delta subtracts a prior snapshot from a later one, dropping zero and
// regressed entries — the per-experiment attribution the harness
// returns in each Result and ctbench writes to -json. With concurrent
// experiments the windows overlap, so per-experiment deltas are
// approximate there (exactly like the machine-count attribution);
// run-level totals stay exact.
//
// Registered histograms get special handling: their exported le_*
// buckets are cumulative, and naively subtracting cumulative keys does
// not yield a valid cumulative decomposition (a bucket whose le_ key
// was absent before — all-zero prefix — would absorb the whole earlier
// tail). Delta decodes both snapshots back to per-bucket counts, diffs
// those, and re-encodes the difference, so a Delta is itself a
// well-formed snapshot that MergeFlat folds in exactly.
func Delta(before, after map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	var skip map[string]struct{}
	for _, h := range registeredHistograms() {
		ac, ok := after[h.countName]
		if !ok {
			continue
		}
		if skip == nil {
			skip = make(map[string]struct{})
		}
		h.markKeys(skip)
		bc := before[h.countName]
		if ac <= bc {
			continue // no new observations
		}
		out[h.countName] = ac - bc
		if as, bs := after[h.sumName], before[h.sumName]; as > bs {
			out[h.sumName] = as - bs
		}
		var ab, bb [histBuckets]uint64
		decodeBuckets(after, h, &ab)
		decodeBuckets(before, h, &bb)
		var cum uint64
		for i := range ab {
			d := ab[i] - bb[i] // buckets are monotonic, never regress
			if d == 0 {
				continue
			}
			cum += d
			out[h.leNames[i]] = cum
		}
	}
	for name, v := range after {
		if skip != nil {
			if _, ok := skip[name]; ok {
				continue
			}
		}
		if b := before[name]; v > b {
			out[name] = v - b
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// markKeys adds every snapshot key this histogram owns to set.
func (h *Histogram) markKeys(set map[string]struct{}) {
	set[h.countName] = struct{}{}
	set[h.sumName] = struct{}{}
	for i := range h.leNames {
		set[h.leNames[i]] = struct{}{}
	}
}

// decodeBuckets recovers per-bucket counts from a snapshot's cumulative
// le_* keys. The emitter writes a key only for buckets with a nonzero
// own count, so each present key's increment over the previous present
// key is exactly that bucket's count.
func decodeBuckets(snap map[string]uint64, h *Histogram, dst *[histBuckets]uint64) {
	var prev uint64
	for i := 0; i < histBuckets; i++ {
		if v, ok := snap[h.leNames[i]]; ok {
			dst[i] = v - prev
			prev = v
		}
	}
}

// MergeFlat folds a flat snapshot produced by another process's
// registry — a fleet worker's Snapshot, or a Delta of two such
// snapshots — into this registry as if the work had happened here:
// plain entries add into their counters, and the
// count/sum/le_* decomposition of each locally registered histogram is
// decoded back into per-bucket observations, so merged bucket counts
// (and the quantiles computed from them) stay exact. Decomposition
// keys of histograms this binary never registered merge as plain
// counters. Unlike the armed-gated probes MergeFlat always applies
// (it is a pull-side merge, not a hot-path probe); idempotence is the
// caller's job — the fleet coordinator merges each accepted unit's
// delta exactly once. Returns the number of entries folded in
// (counting a histogram decomposition as one); a plain entry whose name
// the full name table cannot take is skipped and not counted.
func MergeFlat(snap map[string]uint64) int {
	if len(snap) == 0 {
		return 0
	}
	merged := 0
	var skip map[string]struct{}
	for _, h := range registeredHistograms() {
		count, ok := snap[h.countName]
		if !ok {
			continue
		}
		if skip == nil {
			skip = make(map[string]struct{})
		}
		h.markKeys(skip)
		if count == 0 {
			continue
		}
		var prev uint64
		for i := 0; i < histBuckets; i++ {
			if v, ok := snap[h.leNames[i]]; ok {
				if v > prev {
					h.buckets[i].Add(v - prev)
				}
				prev = v
			}
		}
		h.count.Add(count)
		h.sum.Add(snap[h.sumName])
		merged++
	}
	for name, v := range snap {
		if skip != nil {
			if _, ok := skip[name]; ok {
				continue
			}
		}
		if v == 0 {
			continue
		}
		id := Intern(name)
		if id < 0 {
			continue
		}
		counter(id).Add(v)
		merged++
	}
	return merged
}

// Reset zeroes every counter and histogram (sources keep their
// own state). Benchmarks use it to separate measurement phases; tests
// use it for isolation.
func Reset() {
	for i := range counts {
		if ch := counts[i].Load(); ch != nil {
			for j := range ch {
				ch[j].Store(0)
			}
		}
	}
	for _, h := range registeredHistograms() {
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
	}
}

// sortedNames returns the snapshot's keys in deterministic order, so
// every export is diffable run-to-run.
func sortedNames(snap map[string]uint64) []string {
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WriteJSON writes the current snapshot as a sorted JSON object, with
// p50/p95/p99 summary keys appended for every populated histogram.
func WriteJSON(w io.Writer) error {
	snap := Snapshot()
	appendQuantiles(snap)
	names := sortedNames(snap)
	var b strings.Builder
	b.WriteString("{\n")
	for i, n := range names {
		key, _ := json.Marshal(n)
		fmt.Fprintf(&b, "  %s: %d", key, snap[n])
		if i < len(names)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// promName sanitizes a dotted metric name into Prometheus's
// [a-zA-Z_][a-zA-Z0-9_]* grammar under the ctbia_ namespace.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("ctbia_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the current snapshot in Prometheus text
// exposition format (untyped samples; names sanitized and prefixed
// with ctbia_), with p50/p95/p99 summary samples for every populated
// histogram.
func WritePrometheus(w io.Writer) error {
	snap := Snapshot()
	appendQuantiles(snap)
	var b strings.Builder
	for _, n := range sortedNames(snap) {
		fmt.Fprintf(&b, "%s %d\n", promName(n), snap[n])
	}
	_, err := io.WriteString(w, b.String())
	return err
}
