package resultcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ctbia/internal/faultinject"
)

type payload struct {
	Name string
	Vals []int
}

func openRW(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestHitMiss(t *testing.T) {
	s := openRW(t)
	key := Key("salt-v1", "fig7a", "quick=false")

	var got payload
	if s.Load(key, &got) {
		t.Fatal("empty store reported a hit")
	}
	want := payload{Name: "fig7a", Vals: []int{1, 2, 3}}
	if err := s.Save(key, want); err != nil {
		t.Fatal(err)
	}
	if !s.Load(key, &got) {
		t.Fatal("stored entry reported a miss")
	}
	if got.Name != want.Name || len(got.Vals) != 3 || got.Vals[2] != 3 {
		t.Errorf("round trip mangled the payload: %+v", got)
	}
	if hits, misses, writes := s.Stats(); hits != 1 || misses != 1 || writes != 1 {
		t.Errorf("stats = %d/%d/%d, want 1/1/1", hits, misses, writes)
	}
}

// TestSaltBumpInvalidates is the contract the simulator version salt
// relies on: an entry stored under one salt must never be served under
// another, so bumping the salt orphans every stale table.
func TestSaltBumpInvalidates(t *testing.T) {
	s := openRW(t)
	oldKey := Key("sim-v1", "fig8", "quick=false")
	newKey := Key("sim-v2", "fig8", "quick=false")
	if oldKey == newKey {
		t.Fatal("salt does not change the key")
	}
	if err := s.Save(oldKey, payload{Name: "stale"}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s.Load(newKey, &got) {
		t.Fatal("entry stored under the old salt served for the new salt")
	}
}

// TestKeyLengthPrefixing pins that part boundaries are part of the
// identity: ("ab","c") and ("a","bc") concatenate identically but must
// hash differently.
func TestKeyLengthPrefixing(t *testing.T) {
	if Key("ab", "c") == Key("a", "bc") {
		t.Error(`Key("ab","c") == Key("a","bc"): parts are not length-prefixed`)
	}
	if Key("a") == Key("a", "") {
		t.Error("trailing empty part does not change the key")
	}
}

// TestCorruptedEntryIsMiss writes garbage where an entry should be and
// checks the store treats it as a miss (recompute), never an error.
func TestCorruptedEntryIsMiss(t *testing.T) {
	s := openRW(t)
	key := Key("salt", "exp")
	if err := s.Save(key, payload{Name: "good"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	if s.Load(key, &got) {
		t.Fatal("corrupted entry reported a hit")
	}
	// The corrupted file must not poison future writes.
	if err := s.Save(key, payload{Name: "repaired"}); err != nil {
		t.Fatal(err)
	}
	if !s.Load(key, &got) || got.Name != "repaired" {
		t.Fatalf("rewrite after corruption failed: %+v", got)
	}
}

// TestReadOnlyNeverWrites opens a store in ro mode and checks Save is
// a no-op: no files appear, and even the directory is not created.
func TestReadOnlyNeverWrites(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "never-created")
	s, err := Open(dir, ReadOnly, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Key("a"), payload{Name: "x"}); err != nil {
		t.Fatalf("read-only Save returned error: %v", err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("read-only store created its directory (stat err: %v)", err)
	}

	// A pre-populated directory serves hits read-only.
	rw := openRW(t)
	key := Key("shared")
	if err := rw.Save(key, payload{Name: "seeded"}); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(rw.Dir(), ReadOnly, "")
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if !ro.Load(key, &got) || got.Name != "seeded" {
		t.Errorf("read-only store missed a seeded entry: %+v", got)
	}
	if err := ro.Save(Key("new"), payload{}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(rw.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("read-only Save added files: %d entries in dir", len(entries))
	}
}

func TestNilStore(t *testing.T) {
	var s *Store
	var got payload
	if s.Load(Key("k"), &got) {
		t.Error("nil store reported a hit")
	}
	if err := s.Save(Key("k"), payload{}); err != nil {
		t.Error("nil store Save errored:", err)
	}
	if h, m, w := s.Stats(); h != 0 || m != 0 || w != 0 {
		t.Error("nil store has nonzero stats")
	}
	if s.Mode() != Off || s.Dir() != "" {
		t.Error("nil store mode/dir not Off/empty")
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"off": Off, "rw": ReadWrite, "ro": ReadOnly} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseMode("yes"); err == nil {
		t.Error("ParseMode accepted an unknown mode")
	}
	if Off.String() != "off" || ReadWrite.String() != "rw" || ReadOnly.String() != "ro" {
		t.Error("Mode.String round trip broken")
	}
}

func TestOpenOffIsNil(t *testing.T) {
	s, err := Open("", Off, "")
	if err != nil || s != nil {
		t.Errorf("Open(Off) = %v, %v; want nil, nil", s, err)
	}
}

// TestSaltPrune pins the startup hygiene: a read-write store opened
// with a new salt removes entries (results and traces) written under
// the old one, and a same-salt reopen leaves everything alone.
func TestSaltPrune(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, ReadWrite, "sim-v1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Pruned() != 0 {
		t.Errorf("fresh dir pruned %d entries", s.Pruned())
	}
	key := Key("sim-v1", "fig2")
	if err := s.Save(key, payload{Name: "keep"}); err != nil {
		t.Fatal(err)
	}
	tdir := filepath.Join(dir, TracesSubdir)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		t.Fatal(err)
	}
	tfile := filepath.Join(tdir, "abc123.trace")
	if err := os.WriteFile(tfile, []byte("trace"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Same salt: nothing pruned, the entry still serves.
	s2, err := Open(dir, ReadWrite, "sim-v1")
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if s2.Pruned() != 0 || !s2.Load(key, &got) {
		t.Errorf("same-salt reopen pruned %d / lost the entry", s2.Pruned())
	}

	// New salt: both the result and the trace must go.
	s3, err := Open(dir, ReadWrite, "sim-v2")
	if err != nil {
		t.Fatal(err)
	}
	if s3.Pruned() != 2 {
		t.Errorf("salt bump pruned %d entries, want 2", s3.Pruned())
	}
	if s3.Load(key, &got) {
		t.Error("stale entry survived the salt bump")
	}
	if _, err := os.Stat(tfile); !os.IsNotExist(err) {
		t.Errorf("stale trace survived the salt bump (stat err: %v)", err)
	}
}

// TestClear empties a store on demand and refuses on read-only ones.
func TestClear(t *testing.T) {
	s := openRW(t)
	for i, name := range []string{"a", "b", "c"} {
		if err := s.Save(Key(name), payload{Vals: []int{i}}); err != nil {
			t.Fatal(err)
		}
	}
	n, err := s.Clear()
	if err != nil || n != 3 {
		t.Fatalf("Clear = %d, %v; want 3, nil", n, err)
	}
	var got payload
	if s.Load(Key("a"), &got) {
		t.Error("entry survived Clear")
	}

	ro, err := Open(s.Dir(), ReadOnly, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.Clear(); err == nil {
		t.Error("read-only Clear did not refuse")
	}
	var nilStore *Store
	if n, err := nilStore.Clear(); n != 0 || err != nil {
		t.Errorf("nil store Clear = %d, %v", n, err)
	}
}

// TestCorruptionQuarantined covers every corruption shape PR 4's
// robustness work guards against: truncated, garbage and zero-length
// bodies all miss, move into quarantine/, and leave the slot writable.
func TestCorruptionQuarantined(t *testing.T) {
	cases := map[string][]byte{
		"zero-length": {},
		"garbage":     []byte("\x00\xffnot json at all"),
		"truncated":   []byte(`{"Name":"half`),
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			s := openRW(t)
			key := Key("salt", name)
			if err := s.Save(key, payload{Name: "good", Vals: []int{1, 2}}); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(key), body, 0o644); err != nil {
				t.Fatal(err)
			}
			var got payload
			if s.Load(key, &got) {
				t.Fatal("corrupt entry reported a hit")
			}
			if s.Quarantined() != 1 {
				t.Fatalf("Quarantined()=%d, want 1", s.Quarantined())
			}
			bad := filepath.Join(s.dir, QuarantineSubdir, cleanKey(key)+".json.bad")
			if _, err := os.Stat(bad); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry still in the served set (err %v)", err)
			}
			// The same load never re-trips: the slot is a plain miss now.
			if s.Load(key, &got) {
				t.Fatal("quarantined slot reported a hit")
			}
			if s.Quarantined() != 2 {
				// Counting the caller-visible miss is fine; what matters
				// is the file moved exactly once.
				t.Logf("note: Quarantined()=%d after second miss", s.Quarantined())
			}
			if err := s.Save(key, payload{Name: "repaired"}); err != nil {
				t.Fatal(err)
			}
			if !s.Load(key, &got) || got.Name != "repaired" {
				t.Fatalf("slot unusable after quarantine: %+v", got)
			}
		})
	}
}

// A read-only store must not move files even when it finds corruption —
// it just misses.
func TestQuarantineReadOnlyDoesNotMutate(t *testing.T) {
	dir := t.TempDir()
	rw, err := Open(dir, ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	key := Key("salt", "ro")
	if err := rw.Save(key, payload{Name: "good"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(rw.path(key), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(dir, ReadOnly, "")
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if ro.Load(key, &got) {
		t.Fatal("corrupt entry reported a hit")
	}
	if _, err := os.Stat(ro.path(key)); err != nil {
		t.Fatalf("read-only store moved the entry: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, QuarantineSubdir)); !os.IsNotExist(err) {
		t.Fatalf("read-only store created quarantine/ (err %v)", err)
	}
}

// Clear and the salt prune both sweep quarantined entries too.
func TestClearCoversQuarantine(t *testing.T) {
	s := openRW(t)
	key := Key("salt", "q")
	if err := s.Save(key, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(key), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	var got payload
	s.Load(key, &got) // quarantines
	n, err := s.Clear()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Clear removed %d entries, want the 1 quarantined file", n)
	}
	left, _ := filepath.Glob(filepath.Join(s.dir, QuarantineSubdir, "*"))
	if len(left) != 0 {
		t.Fatalf("quarantine not emptied: %v", left)
	}
}

// The injected I/O faults: cache.read makes Load miss without touching
// the (healthy) entry; cache.write makes Save return a transient error.
func TestInjectedCacheFaults(t *testing.T) {
	s := openRW(t)
	key := Key("salt", "faulty")
	if err := s.Save(key, payload{Name: "good"}); err != nil {
		t.Fatal(err)
	}

	inj, err := faultinject.Parse("cache.read@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(inj)
	defer faultinject.Disarm()
	var got payload
	if s.Load(key, &got) {
		t.Fatal("injected read fault still hit")
	}
	// @1 is one-shot: the next load must hit the untouched entry.
	if !s.Load(key, &got) || got.Name != "good" {
		t.Fatalf("healthy entry lost after injected read fault: %+v", got)
	}

	inj, err = faultinject.Parse("cache.write@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(inj)
	err = s.Save(key, payload{Name: "update"})
	if err == nil {
		t.Fatal("injected write fault did not surface")
	}
	var f *faultinject.Fault
	if !errors.As(err, &f) || !f.Transient {
		t.Fatalf("want a transient *faultinject.Fault, got %v", err)
	}
	// The failed write must not have clobbered the entry.
	if !s.Load(key, &got) || got.Name != "good" {
		t.Fatalf("entry damaged by failed write: %+v", got)
	}
}

// An injected cache.corrupt flips bytes deterministically on read; the
// entry then quarantines like real corruption.
func TestInjectedCacheCorruption(t *testing.T) {
	s := openRW(t)
	key := Key("salt", "flip")
	if err := s.Save(key, payload{Name: "good"}); err != nil {
		t.Fatal(err)
	}
	inj, err := faultinject.Parse("seed=7; cache.corrupt@1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(inj)
	defer faultinject.Disarm()
	var got payload
	if s.Load(key, &got) {
		// A flipped byte may happen to keep the JSON valid; only a
		// decode failure quarantines. Either way it must not crash.
		t.Skip("flip landed on a byte that kept the entry decodable")
	}
	if s.Quarantined() != 1 {
		t.Fatalf("Quarantined()=%d, want 1", s.Quarantined())
	}
}

// The same-salt reopen must take the fast path: the marker alone
// proves the directory is current, so Open does not walk (or touch)
// the entries at all — even ones a mismatched-salt prune would remove.
func TestPruneFastPathSkipsWalk(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, ReadWrite, "sim-v1"); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "feedface.json")
	if err := os.WriteFile(stray, []byte("not even json"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, ReadWrite, "sim-v1")
	if err != nil {
		t.Fatal(err)
	}
	if s.Pruned() != 0 {
		t.Errorf("same-salt reopen pruned %d entries", s.Pruned())
	}
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("same-salt reopen walked and removed entries: %v", err)
	}
	// Sanity: a mismatched salt still sweeps the stray file.
	s2, err := Open(dir, ReadWrite, "sim-v2")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Pruned() != 1 {
		t.Errorf("salt bump pruned %d entries, want 1", s2.Pruned())
	}
}

// Save is write-through: once it returns, the entry is on disk for any
// other store over the directory, with no Flush or Close, and a write
// that cannot land comes back as Save's error. EnableWriteBehind, kept
// only for old callers, changes neither.
func TestSaveDurableOnReturn(t *testing.T) {
	s := openRW(t)
	s.EnableWriteBehind()
	other, err := Open(s.Dir(), ReadOnly, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		key := Key("durable", fmt.Sprint(i))
		if err := s.Save(key, payload{Name: "e", Vals: []int{i}}); err != nil {
			t.Fatal(err)
		}
		var got payload
		if !other.Load(key, &got) || len(got.Vals) != 1 || got.Vals[0] != i {
			t.Fatalf("entry %d not on disk when Save returned: %+v", i, got)
		}
	}
	if err := os.RemoveAll(s.Dir()); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(Key("durable", "gone"), payload{}); err == nil {
		t.Fatal("Save into a removed directory reported success")
	}
}

func TestEnsureWritable(t *testing.T) {
	if err := EnsureWritable(filepath.Join(t.TempDir(), "new", "nested")); err != nil {
		t.Fatalf("fresh nested dir: %v", err)
	}
	if err := EnsureWritable("/proc/definitely/not/writable"); err == nil {
		t.Fatal("unwritable path accepted")
	}
}
