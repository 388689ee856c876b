// Package resultcache is a content-addressed store for experiment
// results. Every experiment in this repository is deterministic: the
// same simulator version, experiment code, machine configuration and
// options always produce the same table. Hashing that identity into a
// key therefore lets repeated `ctbench` invocations skip re-simulating
// experiments whose inputs have not changed — the second run of
// `ctbench -exp all` becomes a directory of small JSON reads.
//
// The store is deliberately dumb: keys are opaque hex strings computed
// by the caller (see harness's cache key, which folds in a simulator
// version salt that must be bumped whenever simulated behaviour
// changes), values are JSON files named <key>.json, writes go through
// a temp-file rename so concurrent writers can never expose a torn
// file, and any unreadable or undecodable entry is treated as a miss —
// a corrupted cache costs a recompute, never a wrong table.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"ctbia/internal/faultinject"
)

// Mode selects how the store behaves.
type Mode int

// Store modes.
const (
	// Off disables the cache entirely (Open returns a nil store).
	Off Mode = iota
	// ReadWrite serves hits and persists new results.
	ReadWrite
	// ReadOnly serves hits but never writes — for CI jobs that must
	// not mutate shared state, and for debugging what a cache holds.
	ReadOnly
)

// ParseMode maps the -cache flag values onto a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return Off, nil
	case "rw":
		return ReadWrite, nil
	case "ro":
		return ReadOnly, nil
	}
	return Off, fmt.Errorf("resultcache: unknown mode %q (want off, rw or ro)", s)
}

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case ReadWrite:
		return "rw"
	case ReadOnly:
		return "ro"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// DefaultDir is where results live unless overridden: the user cache
// directory (~/.cache/ctbia/results on Linux), falling back to the
// system temp directory when the home lookup fails (e.g. minimal CI
// containers without $HOME).
func DefaultDir() string {
	if d, err := os.UserCacheDir(); err == nil {
		return filepath.Join(d, "ctbia", "results")
	}
	return filepath.Join(os.TempDir(), "ctbia-results")
}

// Key hashes an ordered list of identity parts into a cache key. Parts
// are length-prefixed before hashing so no concatenation of different
// part lists can collide ("ab","c" vs "a","bc").
func Key(parts ...string) string {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Store is one result directory. A nil *Store is valid and behaves as
// a cache that always misses and never writes, so callers can thread
// an optional cache through without nil checks. Stats counters are
// atomic; Load/Save themselves are safe for concurrent use.
type Store struct {
	dir    string
	mode   Mode
	pruned int

	hits, misses, writes, quarantines atomic.Uint64
}

// versionMarker is the file recording which version salt the
// directory's entries were written under.
const versionMarker = "VERSION"

// Open returns a store over dir (DefaultDir when empty) in the given
// mode. Off yields a nil store. ReadWrite creates the directory;
// ReadOnly does not (a missing directory is just an always-miss cache).
//
// salt is the caller's version salt (harness.SimVersionSalt for
// ctbench). A read-write store compares it against the directory's
// version marker and, on mismatch, prunes every stored entry before
// writing the new marker. Entries keyed under an old salt could never
// be *served* again (the salt is hashed into every key), so pruning is
// purely hygiene: it stops dead files accumulating forever. Pass "" to
// skip the check.
func Open(dir string, mode Mode, salt string) (*Store, error) {
	if mode == Off {
		return nil, nil
	}
	if dir == "" {
		dir = DefaultDir()
	}
	s := &Store{dir: dir, mode: mode}
	if mode == ReadWrite {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		if salt != "" {
			// Best-effort: a failed prune costs disk, never correctness.
			s.pruned = pruneStale(dir, salt)
		}
	}
	return s, nil
}

// pruneStale empties the store when its version marker disagrees with
// salt, then records salt. Returns the number of entries removed.
func pruneStale(dir, salt string) int {
	marker := filepath.Join(dir, versionMarker)
	if cur, err := os.ReadFile(marker); err == nil && string(cur) == salt {
		return 0
	}
	n := clearEntries(dir)
	if tmp, err := os.CreateTemp(dir, "tmp-*"); err == nil {
		_, werr := tmp.WriteString(salt)
		cerr := tmp.Close()
		if werr != nil || cerr != nil || os.Rename(tmp.Name(), marker) != nil {
			os.Remove(tmp.Name())
		}
	}
	return n
}

// clearEntries removes every result entry under dir, quarantined ones
// included, returning how many went: the files the store itself names,
// <key>.json at the top and <key>.json.bad under quarantine/, with key
// a 64-digit lowercase hex Key. Any other file stays and is not
// counted, so a cache directory shared with other output (a -json
// report, a settings file) loses only cache entries. Unremovable files
// are skipped — the next prune retries them.
func clearEntries(dir string) int {
	n := 0
	for _, sub := range []struct{ dir, suffix string }{
		{dir, ".json"},
		{filepath.Join(dir, QuarantineSubdir), ".json.bad"},
	} {
		files, _ := os.ReadDir(sub.dir)
		for _, f := range files {
			key, ok := strings.CutSuffix(f.Name(), sub.suffix)
			if ok && isKey(key) && os.Remove(filepath.Join(sub.dir, f.Name())) == nil {
				n++
			}
		}
	}
	return n
}

// isKey reports whether s has the shape of a Key: 64 lowercase hex
// digits.
func isKey(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Pruned returns how many stale entries Open removed (0 for a nil
// store or when the salt matched).
func (s *Store) Pruned() int {
	if s == nil {
		return 0
	}
	return s.pruned
}

// Clear removes every entry from a read-write store, keeping the
// version marker, and returns how many were removed.
func (s *Store) Clear() (int, error) {
	if s == nil {
		return 0, nil
	}
	if s.mode != ReadWrite {
		return 0, fmt.Errorf("resultcache: clear requires a read-write store")
	}
	return clearEntries(s.dir), nil
}

// Dir returns the store's directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Mode returns the store's mode (Off for a nil store).
func (s *Store) Mode() Mode {
	if s == nil {
		return Off
	}
	return s.mode
}

// path maps a key to its file. Keys are caller-produced hex, but guard
// against anything path-like ending up in a filename anyway.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, cleanKey(key)+".json")
}

func cleanKey(key string) string {
	out := make([]byte, 0, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'f', c >= 'A' && c <= 'F':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// Load decodes the entry for key into v and reports whether it hit.
// Missing, unreadable and undecodable entries all report false:
// corruption is a miss (costing a recompute), never an error. A
// truncated, garbage or zero-length entry body is additionally
// quarantined — moved aside so it cannot re-fail on every run — before
// reporting the miss. On a false return v may hold a partial decode
// and must not be used.
//
// Note that a corrupt body can still decode cleanly into a structurally
// wrong value (JSON `null` yields the zero value); callers that can
// validate shape should do so and call Quarantine on rejects (the
// harness validates cached tables this way).
func (s *Store) Load(key string, v any) bool {
	if s == nil {
		return false
	}
	if faultinject.Should("cache.read", key) {
		s.misses.Add(1)
		return false
	}
	buf, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return false
	}
	buf = faultinject.Corrupt("cache.corrupt", key, buf)
	if len(buf) == 0 || json.Unmarshal(buf, v) != nil {
		s.Quarantine(key)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// QuarantineSubdir is where a read-write store moves entries it cannot
// decode (or that a caller's validation rejected); keeping them aside
// preserves the evidence for debugging without re-tripping every run.
const QuarantineSubdir = "quarantine"

// Quarantine moves the entry for key out of the served set into the
// quarantine subdirectory. Best-effort: on a read-only store (which
// must not mutate shared state) or any rename failure the entry simply
// stays, costing a recompute per run. Safe on a nil store.
func (s *Store) Quarantine(key string) {
	if s == nil {
		return
	}
	s.quarantines.Add(1)
	if s.mode != ReadWrite {
		return
	}
	qdir := filepath.Join(s.dir, QuarantineSubdir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return
	}
	_ = os.Rename(s.path(key), filepath.Join(qdir, cleanKey(key)+".json.bad"))
}

// Quarantined returns how many entries were quarantined since Open.
func (s *Store) Quarantined() uint64 {
	if s == nil {
		return 0
	}
	return s.quarantines.Load()
}

// EnsureWritable verifies dir can host a store: it must be creatable
// and allow file creation. CLIs call this up front so a bad -cachedir
// or -tracedir is a friendly flag error, not a sweep that silently
// caches nothing (or dies mid-run).
func EnsureWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("resultcache: cannot create %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, "tmp-probe-*")
	if err != nil {
		return fmt.Errorf("resultcache: %s is not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name())
	return nil
}

// Save persists v under key and returns once the entry is on disk (or
// with the write's error). A nil or read-only store ignores the write.
// The value lands via temp file + rename, so a concurrent reader sees
// either the old entry or the complete new one.
func (s *Store) Save(key string, v any) error {
	if s == nil || s.mode != ReadWrite {
		return nil
	}
	if faultinject.Should("cache.write", key) {
		return fmt.Errorf("resultcache: %w", &faultinject.Fault{Point: "cache.write", Key: key, Transient: true})
	}
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	_, werr := tmp.Write(append(buf, '\n'))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: writing %s: %v/%v", tmp.Name(), werr, cerr)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// Stats returns the hit/miss/write counts since Open.
func (s *Store) Stats() (hits, misses, writes uint64) {
	if s == nil {
		return 0, 0, 0
	}
	return s.hits.Load(), s.misses.Load(), s.writes.Load()
}

// EmitMetrics enumerates the store's counters as flat dotted names —
// the pull-side hook a CLI registers as an observability Source
// (obs.RegisterSource(store.EmitMetrics)). Safe on a nil store.
func (s *Store) EmitMetrics(emit func(name string, v uint64)) {
	if s == nil {
		return
	}
	emit("resultcache.hits", s.hits.Load())
	emit("resultcache.misses", s.misses.Load())
	emit("resultcache.writes", s.writes.Load())
	emit("resultcache.quarantines", s.quarantines.Load())
}

// EnableWriteBehind does nothing: Save always writes through.
//
// Deprecated: kept only so existing callers compile.
func (s *Store) EnableWriteBehind() {}

// Close does nothing: a Store holds no open files or goroutines.
//
// Deprecated: kept only so existing callers compile.
func (s *Store) Close() {}
