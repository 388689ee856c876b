package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// ManifestName is the journal file RunAll maintains next to the result
// cache: one entry per completed (or failed) experiment, so an
// interrupted or partially failed sweep can be resumed with
// `ctbench -resume` instead of re-run from scratch.
const ManifestName = "manifest.json"

// ManifestEntry is one experiment's journaled outcome.
type ManifestEntry struct {
	// Status is "ok" or "failed".
	Status string `json:"status"`
	// Key is the result-cache key the experiment ran under; a resume
	// only trusts entries whose key still matches (a salt bump or a
	// -quick flip changes the key and invalidates the entry).
	Key string `json:"key"`
	// Error holds the first line of the failure for failed entries.
	Error string `json:"error,omitempty"`
	// WallMS is the experiment's wall time.
	WallMS float64 `json:"wall_ms"`
	// Completed is the RFC3339 completion time.
	Completed string `json:"completed"`
	// Metrics is the observability delta attributed to this experiment
	// (present only when the layer was armed for the run).
	Metrics map[string]uint64 `json:"metrics,omitempty"`
}

// manifestData is the snapshot's on-disk layout.
type manifestData struct {
	Salt    string                   `json:"salt"`
	Quick   bool                     `json:"quick"`
	Updated string                   `json:"updated"`
	Entries map[string]ManifestEntry `json:"entries"`
	// Provenance stamps the run that produced (or last touched) the
	// journal. Absent in journals from older binaries — not part of
	// staleness (the salt already gates simulator compatibility).
	Provenance *Provenance `json:"provenance,omitempty"`
}

// Manifest journals per-experiment completion for checkpoint-resume.
// Record rewrites the whole snapshot before it returns, via temp file +
// rename so neither a reader nor a crash can see a torn file: every
// recorded outcome survives a crash of the run that produced it. A
// sweep records once per experiment, so that is a few dozen small
// writes per run. Safe for concurrent use by RunAll's workers.
type Manifest struct {
	mu   sync.Mutex
	path string
	data manifestData

	// Commit accounting (read via Stats/EmitMetrics).
	records, commits, bytesWritten uint64
}

// NewManifest starts an empty journal at path (previous contents, if
// any, are superseded on the first Record).
func NewManifest(path string, quick bool) *Manifest {
	return &Manifest{
		path: path,
		data: manifestData{
			Salt:    SimVersionSalt,
			Quick:   quick,
			Entries: make(map[string]ManifestEntry),
		},
	}
}

// LoadManifest reads an existing journal for a -resume run. A missing
// snapshot is an error (there is nothing to resume); a journal written
// under a different simulator salt or Quick setting is stale —
// resuming from it would mix incompatible results — so it comes back
// empty with stale=true and the caller decides whether to warn.
func LoadManifest(path string, quick bool) (m *Manifest, stale bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("harness: no manifest to resume from: %w", err)
	}
	var data manifestData
	if err := json.Unmarshal(buf, &data); err != nil {
		// A torn or corrupted journal must not kill the resume — it
		// just cannot skip anything.
		return NewManifest(path, quick), true, nil
	}
	if data.Salt != SimVersionSalt || data.Quick != quick || data.Entries == nil {
		return NewManifest(path, quick), true, nil
	}
	m = NewManifest(path, quick)
	m.data = data
	return m, false, nil
}

// SetProvenance stamps the journal with the producing run's provenance
// (written with the next Record).
func (m *Manifest) SetProvenance(p Provenance) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.data.Provenance = &p
	m.mu.Unlock()
}

// Record journals one experiment outcome and rewrites the snapshot
// before returning. Best-effort: a failed write costs resumability (the
// experiment re-runs on -resume, usually as a cache hit), never
// results.
func (m *Manifest) Record(id string, e ManifestEntry) {
	if m == nil {
		return
	}
	e.Completed = time.Now().UTC().Format(time.RFC3339)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records++
	m.data.Entries[id] = e
	m.data.Updated = e.Completed
	buf, err := json.MarshalIndent(&m.data, "", " ")
	if err != nil {
		return
	}
	tmp, err := os.CreateTemp(filepath.Dir(m.path), "tmp-manifest-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write(append(buf, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), m.path) != nil {
		os.Remove(tmp.Name())
		return
	}
	m.commits++
	m.bytesWritten += uint64(len(buf)) + 1
}

// Close does nothing: Record leaves nothing to commit.
//
// Deprecated: kept only so existing callers compile.
func (m *Manifest) Close() {}

// Entry returns the journaled outcome for one experiment.
func (m *Manifest) Entry(id string) (ManifestEntry, bool) {
	if m == nil {
		return ManifestEntry{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.data.Entries[id]
	return e, ok
}

// Done reports whether id completed successfully under the given cache
// key — the test a -resume run uses to decide what to skip.
func (m *Manifest) Done(id, key string) bool {
	e, ok := m.Entry(id)
	return ok && e.Status == "ok" && e.Key == key
}

// Summary counts journaled outcomes.
func (m *Manifest) Summary() (ok, failed int) {
	if m == nil {
		return 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.data.Entries {
		if e.Status == "ok" {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// Stats returns the journal's commit accounting: recorded entries,
// snapshot commits and total journal bytes written.
func (m *Manifest) Stats() (records, commits, bytes uint64) {
	if m == nil {
		return 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.records, m.commits, m.bytesWritten
}

// EmitMetrics enumerates the journal's commit accounting as flat
// dotted names — the pull-side hook a CLI registers as an
// observability Source. Safe on a nil manifest.
func (m *Manifest) EmitMetrics(emit func(name string, v uint64)) {
	if m == nil {
		return
	}
	records, commits, bytes := m.Stats()
	emit("manifest.records", records)
	emit("manifest.commits", commits)
	emit("manifest.bytes_written", bytes)
}
