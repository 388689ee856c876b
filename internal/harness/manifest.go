package harness

import (
	"bufio"
	"bytes"
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

// ManifestWALName is the append-only tail of the journal (the
// snapshot's name plus this suffix). Rewriting
// the whole (growing) snapshot after every experiment costs O(n²)
// bytes over an n-experiment sweep; instead, completed entries buffer
// in memory and commit in batches as JSONL appends here — O(1) bytes
// per entry — while the snapshot is rewritten only on terminal events
// (a FAILED entry, Close, end of run). A resume replays the WAL over
// the snapshot, dropping a torn final line.
const ManifestWALName = ".wal"

// Batched-commit defaults. The batch count is the journal's
// durability contract: a crash loses at most DefaultManifestBatch
// uncommitted entries (each worth one re-run — usually a cache hit —
// on resume), never a committed one.
const (
	// DefaultManifestBatch is the buffered-entry count that forces a
	// WAL commit.
	DefaultManifestBatch = 32
	// DefaultManifestBatchBytes is the buffered-byte threshold that
	// forces a WAL commit before the count is reached.
	DefaultManifestBatchBytes = 64 << 10
	// DefaultManifestFlushInterval bounds how long a buffered entry
	// can sit uncommitted while the sweep is between completions.
	DefaultManifestFlushInterval = 500 * time.Millisecond
)

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

// walRecord is one WAL line: an entry plus the experiment id it
// belongs to. Lines are self-delimiting JSON, so a torn tail (the
// crash window) is detectable and discardable on load.
type walRecord struct {
	ID    string        `json:"id"`
	Entry ManifestEntry `json:"e"`
}

// Manifest journals per-experiment completion for checkpoint-resume.
// Record buffers entries in memory and commits them to disk in
// batches (see the Default* constants): a WAL append on a count/byte
// threshold or a timer tick, a full snapshot (temp file + rename, the
// crash-safe path) on any terminal outcome, Flush at the end of a
// RunAll, and Close. The durability contract is "at most the batch
// count of uncommitted entries": a crash mid-sweep re-runs only the
// buffered tail, and a committed entry is never lost or duplicated.
// Safe for concurrent use by RunAll's workers.
type Manifest struct {
	mu   sync.Mutex
	path string
	data manifestData

	// Batching state. pending holds encoded-but-uncommitted WAL lines;
	// the entries themselves are already folded into data.Entries.
	pending      bytes.Buffer
	pendingCount int
	batchCount   int
	batchBytes   int
	interval     time.Duration
	timer        *time.Timer
	wal          *os.File
	snapshotted  bool // manifest.json reflects this lineage on disk

	// Commit accounting (read via Stats/EmitMetrics).
	records       uint64
	walCommits    uint64
	snapCommits   uint64
	bytesJournal  uint64
	flushFailures uint64
}

// NewManifest starts an empty journal at path (previous contents, if
// any, are superseded on the first commit) with default batching.
func NewManifest(path string, quick bool) *Manifest {
	return &Manifest{
		path:       path,
		batchCount: DefaultManifestBatch,
		batchBytes: DefaultManifestBatchBytes,
		interval:   DefaultManifestFlushInterval,
		data: manifestData{
			Salt:    SimVersionSalt,
			Quick:   quick,
			Entries: make(map[string]ManifestEntry),
		},
	}
}

// SetBatch tunes the commit thresholds: count buffered entries or
// maxBytes buffered bytes force a WAL commit, and interval bounds how
// long anything stays buffered. count <= 1 commits every Record
// (smallest crash window, most I/O); non-positive maxBytes/interval
// keep the defaults. Call before the first Record.
func (m *Manifest) SetBatch(count, maxBytes int, interval time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if count < 1 {
		count = 1
	}
	m.batchCount = count
	if maxBytes > 0 {
		m.batchBytes = maxBytes
	}
	if interval > 0 {
		m.interval = interval
	}
}

// walPath is the WAL file next to the snapshot.
func (m *Manifest) walPath() string { return m.path + ManifestWALName }

// LoadManifest reads an existing journal for a -resume run: the
// snapshot plus any committed WAL tail (a torn final WAL line — the
// crash window — is dropped). A missing snapshot is an error (there is
// nothing to resume); a journal written under a different simulator
// salt or Quick setting is stale — resuming from it would mix
// incompatible results — so it comes back empty with stale=true and
// the caller decides whether to warn.
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
	// Replay the WAL tail over the snapshot. The WAL is truncated on
	// every snapshot commit, so surviving lines are strictly newer
	// than the snapshot; later lines for the same id win.
	if wbuf, werr := os.ReadFile(m.walPath()); werr == nil {
		sc := bufio.NewScanner(bytes.NewReader(wbuf))
		sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
		for sc.Scan() {
			var rec walRecord
			if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.ID == "" {
				break // torn tail: drop it and everything after
			}
			m.data.Entries[rec.ID] = rec.Entry
		}
	}
	return m, false, nil
}

// SetProvenance stamps the journal with the producing run's provenance
// (committed with the next snapshot).
func (m *Manifest) SetProvenance(p Provenance) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.data.Provenance = &p
	m.mu.Unlock()
}

// Record journals one experiment outcome. "ok" outcomes buffer and
// commit in batches; any other status is terminal and forces an
// immediate snapshot commit (a FAILED row must survive the crashy run
// that produced it).
func (m *Manifest) Record(id string, e ManifestEntry) {
	if m == nil {
		return
	}
	e.Completed = time.Now().UTC().Format(time.RFC3339)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.records++
	m.data.Entries[id] = e
	if e.Status != "ok" {
		m.snapshotLocked()
		return
	}
	line, err := json.Marshal(walRecord{ID: id, Entry: e})
	if err != nil {
		m.snapshotLocked() // can't encode a WAL line: fall back
		return
	}
	m.pending.Write(line)
	m.pending.WriteByte('\n')
	m.pendingCount++
	if m.pendingCount >= m.batchCount || m.pending.Len() >= m.batchBytes {
		m.commitWALLocked()
		return
	}
	m.armTimerLocked()
}

// armTimerLocked schedules a deadline commit for the buffered entries.
func (m *Manifest) armTimerLocked() {
	if m.timer != nil {
		return
	}
	m.timer = time.AfterFunc(m.interval, func() {
		m.mu.Lock()
		m.timer = nil
		if m.pendingCount > 0 {
			m.commitWALLocked()
		}
		m.mu.Unlock()
	})
}

// stopTimerLocked cancels any scheduled deadline commit.
func (m *Manifest) stopTimerLocked() {
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
}

// commitWALLocked appends the buffered lines to the WAL file. The
// first commit of a lineage writes the snapshot instead, so a resume
// always finds a manifest.json carrying the salt/quick header that
// gates the WAL. Best-effort: a failed append costs resumability of
// the batch, never results.
func (m *Manifest) commitWALLocked() {
	m.stopTimerLocked()
	if !m.snapshotted {
		m.snapshotLocked()
		return
	}
	if m.wal == nil {
		f, err := os.OpenFile(m.walPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			m.flushFailures++
			return
		}
		m.wal = f
	}
	n, err := m.wal.Write(m.pending.Bytes())
	m.bytesJournal += uint64(n)
	if err != nil {
		// A short append leaves a torn final line; the loader drops it
		// and the next snapshot truncates the file. Re-buffering the
		// batch would duplicate the already-written prefix, so drop it.
		m.flushFailures++
	}
	m.walCommits++
	m.pending.Reset()
	m.pendingCount = 0
}

// snapshotLocked rewrites the full snapshot via temp file + rename so
// a reader (or a crash) never sees a torn file, then truncates the WAL
// (its entries are all in the snapshot now) and clears the buffer.
// Best-effort: a failed flush costs resumability, never results.
func (m *Manifest) snapshotLocked() {
	m.stopTimerLocked()
	m.data.Updated = time.Now().UTC().Format(time.RFC3339)
	buf, err := json.MarshalIndent(&m.data, "", " ")
	if err != nil {
		m.flushFailures++
		return
	}
	dir := filepath.Dir(m.path)
	tmp, err := os.CreateTemp(dir, "tmp-manifest-*")
	if err != nil {
		m.flushFailures++
		return
	}
	_, werr := tmp.Write(append(buf, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), m.path) != nil {
		os.Remove(tmp.Name())
		m.flushFailures++
		return
	}
	m.snapCommits++
	m.bytesJournal += uint64(len(buf)) + 1
	m.snapshotted = true
	m.pending.Reset()
	m.pendingCount = 0
	if m.wal != nil {
		m.wal.Close()
		m.wal = nil
	}
	os.Remove(m.walPath())
}

// Flush commits every buffered entry (a WAL append, or the first
// snapshot of the lineage). RunAll calls it once at the end of a
// sweep; callers handing the journal to another process should Close
// instead.
func (m *Manifest) Flush() {
	if m == nil {
		return
	}
	m.mu.Lock()
	if m.pendingCount > 0 || !m.snapshotted {
		m.commitWALLocked()
	} else {
		m.stopTimerLocked()
	}
	m.mu.Unlock()
}

// Close folds everything — buffered entries and committed WAL tail —
// into one final snapshot, removes the WAL and releases the file
// handle. The journal is still usable afterwards (a later Record
// starts a fresh batch), but a finished run should end with Close so
// manifest.json alone describes the sweep.
func (m *Manifest) Close() {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.snapshotLocked()
	m.mu.Unlock()
}

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
// WAL-append commits, snapshot commits, total journal bytes written
// and entries currently buffered.
func (m *Manifest) Stats() (records, walCommits, snapCommits, bytes uint64, pending int) {
	if m == nil {
		return 0, 0, 0, 0, 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.records, m.walCommits, m.snapCommits, m.bytesJournal, m.pendingCount
}

// EmitMetrics enumerates the journal's commit accounting as flat
// dotted names — the pull-side hook a CLI registers as an
// observability Source. Safe on a nil manifest.
func (m *Manifest) EmitMetrics(emit func(name string, v uint64)) {
	if m == nil {
		return
	}
	records, walCommits, snapCommits, bytes, pending := m.Stats()
	emit("manifest.records", records)
	emit("manifest.wal_commits", walCommits)
	emit("manifest.snapshot_commits", snapCommits)
	emit("manifest.commits", walCommits+snapCommits)
	emit("manifest.bytes_written", bytes)
	emit("manifest.pending", uint64(pending))
}
