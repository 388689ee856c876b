package memp

import "testing"

func TestPageCacheStats(t *testing.T) {
	m := NewMemory()
	m.Write64(AllocBase, 1)          // miss (creates the page, caches it)
	m.Write64(AllocBase+8, 2)        // hit
	_ = m.Read64(AllocBase + 16)     // hit
	m.Write64(AllocBase+PageSize, 3) // miss (new page)
	if m.PageMisses != 2 {
		t.Fatalf("PageMisses = %d, want 2", m.PageMisses)
	}
	if m.PageHits != 2 {
		t.Fatalf("PageHits = %d, want 2", m.PageHits)
	}
	// Two pages read alternately keep one entry each: after their first
	// translations, every read hits.
	m = NewMemory()
	m.Write64(AllocBase, 1)
	m.Write64(AllocBase+PageSize, 2)
	for i := 0; i < 8; i++ {
		_ = m.Read64(AllocBase + Addr(i%2)*PageSize)
	}
	if m.PageMisses != 2 || m.PageHits != 8 {
		t.Fatalf("alternating pages: PageMisses = %d, PageHits = %d, want 2 and 8", m.PageMisses, m.PageHits)
	}
}

func TestResetZeroesPageStats(t *testing.T) {
	m := NewMemory()
	m.Write64(AllocBase, 1)
	m.Write64(AllocBase+8, 2)
	m.Reset()
	if m.PageHits != 0 || m.PageMisses != 0 {
		t.Fatalf("after Reset: hits=%d misses=%d, want 0/0", m.PageHits, m.PageMisses)
	}
	m.ResetStats()
	if m.PageHits != 0 || m.PageMisses != 0 {
		t.Fatal("ResetStats must zero page stats")
	}
}
