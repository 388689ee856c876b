package harness

// The experiment journal is retired. The result cache is the one
// mechanism that lets a re-run skip finished experiments (Lookup serves
// them; a failed experiment is never cached, so it simulates again),
// and ctbench's -json report is the run record: each experiment's
// status, errors, metrics, wall time and cache key, with the run's
// provenance. What follows are no-ops that keep existing callers
// compiling; nothing reads or writes a journal file.

// ManifestName is the file name the retired journal used.
//
// Deprecated: kept only so existing callers compile.
const ManifestName = "manifest.json"

// Manifest is the retired experiment journal. It records nothing.
//
// Deprecated: kept only so existing callers compile.
type Manifest struct{}

// NewManifest returns a journal that records nothing and writes no
// file.
//
// Deprecated: kept only so existing callers compile.
func NewManifest(path string, quick bool) *Manifest { return &Manifest{} }

// Close does nothing.
//
// Deprecated: kept only so existing callers compile.
func (m *Manifest) Close() {}

// EmitMetrics emits nothing.
//
// Deprecated: kept only so existing callers compile.
func (m *Manifest) EmitMetrics(emit func(name string, v uint64)) {}
