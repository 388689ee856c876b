package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ctbia/internal/resultcache"
)

// The journal's durability contract, exercised by simulated crashes:
// every Record is on disk when it returns, so a run that dies at any
// point loses no recorded outcome, and a resume never sees a row twice.

func okEntry(i int) (string, ManifestEntry) {
	id := fmt.Sprintf("exp-%d", i)
	return id, ManifestEntry{Status: "ok", Key: "key-" + id, WallMS: 1}
}

// After every Record, ok or failed, a fresh load (what -resume does
// after a crash right there) sees every entry recorded so far, and the
// snapshot is the whole journal: no side file holds entries it lacks.
func TestManifestRecordDurableOnReturn(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	const total = 6
	for i := 0; i < total; i++ {
		id, e := okEntry(i)
		if i%3 == 2 {
			e.Status, e.Error = "failed", "boom"
		}
		m.Record(id, e)
		got, stale, err := LoadManifest(path, true)
		if err != nil || stale {
			t.Fatalf("reload after record %d: stale=%v err=%v", i, stale, err)
		}
		for j := 0; j <= i; j++ {
			id, want := okEntry(j)
			if ent, ok := got.Entry(id); !ok || ent.Key != want.Key || (ent.Status == "ok") != (j%3 != 2) {
				t.Fatalf("after record %d, entry %s reloaded as %+v (present %v)", i, id, ent, ok)
			}
		}
		if okN, failedN := got.Summary(); okN+failedN != i+1 {
			t.Fatalf("after record %d, reload holds %d entries", i, okN+failedN)
		}
		if _, err := os.Stat(path + ".wal"); !os.IsNotExist(err) {
			t.Fatalf("after record %d, a journal side file exists (stat err %v)", i, err)
		}
	}
	if records, commits, _ := m.Stats(); records != total || commits != total {
		t.Errorf("records/commits = %d/%d, want %d/%d", records, commits, total, total)
	}
}

// Re-recording an id across a crash/resume boundary must not duplicate
// it: the journal is keyed by experiment id and the last record wins.
func TestManifestResumeNeverDuplicates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	id, e := okEntry(0)
	m.Record(id, e)
	m.Record(id, ManifestEntry{Status: "ok", Key: e.Key, WallMS: 2}) // same id again

	got, stale, err := LoadManifest(path, true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	if okN, failedN := got.Summary(); okN != 1 || failedN != 0 {
		t.Fatalf("duplicate rows after reload: %d ok / %d failed, want 1/0", okN, failedN)
	}
	if ent, ok := got.Entry(id); !ok || ent.WallMS != 2 {
		t.Fatalf("reload not last-wins: %+v", ent)
	}

	// The resumed journal records the id once more; a fresh load still
	// sees exactly one row, the latest.
	got.Record(id, ManifestEntry{Status: "ok", Key: e.Key, WallMS: 3})
	final, stale, err := LoadManifest(path, true)
	if err != nil || stale {
		t.Fatalf("final reload: stale=%v err=%v", stale, err)
	}
	if okN, _ := final.Summary(); okN != 1 {
		t.Fatalf("%d rows after resume, want 1", okN)
	}
	if ent, _ := final.Entry(id); ent.WallMS != 3 {
		t.Fatalf("final row not the latest record: %+v", ent)
	}
}

// Older binaries journaled through a manifest.json.wal side file and
// may have left one behind. The snapshot alone is the journal now: a
// leftover WAL adds nothing to a current lineage and cannot resurrect
// entries into a stale one.
func TestManifestStaleSnapshotIgnoresWAL(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	m := NewManifest(path, true)
	m.Record(okEntry(0))
	wal := `{"id":"exp-1","e":{"status":"ok","key":"key-exp-1","wall_ms":1}}` + "\n"
	if err := os.WriteFile(path+".wal", []byte(wal), 0o644); err != nil {
		t.Fatal(err)
	}
	got, stale, err := LoadManifest(path, true)
	if err != nil || stale {
		t.Fatalf("reload: stale=%v err=%v", stale, err)
	}
	if okN, failedN := got.Summary(); okN != 1 || failedN != 0 {
		t.Fatalf("reload carried %d/%d entries, want the snapshot's 1/0", okN, failedN)
	}
	// Load under the other quick setting: stale, empty.
	got, stale, err = LoadManifest(path, false)
	if err != nil || !stale {
		t.Fatalf("want stale reload, got stale=%v err=%v", stale, err)
	}
	if okN, failedN := got.Summary(); okN != 0 || failedN != 0 {
		t.Fatalf("stale reload carried %d/%d entries", okN, failedN)
	}
}

// checkSinksUnderContention journals and caches items outcomes from
// workers concurrent goroutines — the shared-sink traffic of a parallel
// sweep — and checks that nothing is lost or folded away: one manifest
// commit and one cache write per item, and a journal that reloads
// complete.
func checkSinksUnderContention(t *testing.T, workers int) {
	t.Helper()
	const items = 192
	dir := t.TempDir()
	store, err := resultcache.Open(dir, resultcache.ReadWrite, "")
	if err != nil {
		t.Fatal(err)
	}
	man := NewManifest(filepath.Join(dir, ManifestName), true)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < items; i = int(next.Add(1)) - 1 {
				key := resultcache.Key("contention", fmt.Sprint(i))
				if err := store.Save(key, []int{i, 2 * i}); err != nil {
					t.Error(err)
				}
				man.Record(fmt.Sprintf("item-%d", i), ManifestEntry{Status: "ok", Key: key, WallMS: 0.1})
			}
		}()
	}
	wg.Wait()

	if records, commits, _ := man.Stats(); records != items || commits != items {
		t.Errorf("manifest records/commits = %d/%d, want %d/%d", records, commits, items, items)
	}
	if _, _, writes := store.Stats(); writes != items {
		t.Errorf("cache writes = %d, want %d", writes, items)
	}
	m, stale, err := LoadManifest(filepath.Join(dir, ManifestName), true)
	if err != nil || stale {
		t.Fatalf("manifest reload: stale=%v err=%v", stale, err)
	}
	if okN, failedN := m.Summary(); okN != items || failedN != 0 {
		t.Errorf("manifest reloaded %d/%d entries, want %d/0", okN, failedN, items)
	}
}

func TestSinksUnderContention(t *testing.T) {
	checkSinksUnderContention(t, runtime.GOMAXPROCS(0))
}

// At 4x oversubscription workers contend hardest for the sinks' locks.
func TestSinksUnderContentionHighWorkers(t *testing.T) {
	checkSinksUnderContention(t, 4*runtime.GOMAXPROCS(0))
}

// FuzzLoadManifest feeds arbitrary bytes to -resume's entry point as
// manifest.json. Whatever the bytes, LoadManifest returns a journal
// without error, the skip decisions -resume asks of it never panic, and
// it journals on: the snapshot a following Record writes loads back
// current (not stale) with the same entries.
func FuzzLoadManifest(f *testing.F) {
	path := filepath.Join(f.TempDir(), ManifestName)
	m := NewManifest(path, true)
	for i := 0; i < 3; i++ {
		id, e := okEntry(i)
		if i == 2 {
			e.Status, e.Error = "failed", "boom"
		}
		m.Record(id, e)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(snap, true)
	f.Add(snap, false)
	f.Add(snap[:len(snap)/2], true) // a truncated journal
	f.Add(bytes.Replace(snap, []byte(SimVersionSalt), []byte("ctbia-sim-old"), 1), true)
	f.Add([]byte(`{"id":"exp-1","e":{"status":"ok","key":"key-exp-1","wall_ms":1}}`), true) // an old WAL line
	f.Add([]byte("{torn"), true)
	f.Add([]byte("null"), true)
	f.Add([]byte(`{"entries":null}`), true)
	// entries renders a journal's entries in the form Record writes.
	entries := func(m *Manifest) string {
		m.mu.Lock()
		defer m.mu.Unlock()
		buf, _ := json.Marshal(m.data.Entries)
		return string(buf)
	}
	// keys[quick][id] is the cache key -resume checks an entry against.
	keys := map[bool]map[string]string{}
	for _, quick := range []bool{false, true} {
		keys[quick] = map[string]string{}
		for _, e := range Experiments() {
			keys[quick][e.ID] = CacheKey(e, Options{Quick: quick})
		}
	}
	f.Fuzz(func(t *testing.T, buf []byte, quick bool) {
		path := filepath.Join(t.TempDir(), ManifestName)
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := LoadManifest(path, quick)
		if err != nil {
			t.Fatalf("LoadManifest of an existing file: %v", err)
		}
		for id, key := range keys[quick] {
			m.Done(id, key)
			m.Entry(id)
		}
		m.Summary()
		m.Record("fuzz", ManifestEntry{Status: "ok", Key: "k"})
		back, stale, err := LoadManifest(path, quick)
		if err != nil || stale {
			t.Fatalf("reload after Record: stale=%v err=%v", stale, err)
		}
		if got, want := entries(back), entries(m); got != want {
			t.Fatalf("reload after Record changed the entries\nwant: %s\ngot:  %s", want, got)
		}
	})
}
