package statedir

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func mustOpen(t *testing.T, dir string) (*Manifest, *Recovery) {
	t.Helper()
	m, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m, rec
}

func TestManifestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m, rec := mustOpen(t, dir)
	if !rec.Created {
		t.Fatal("fresh dir should create the manifest")
	}
	if g, err := m.Register("alpha", ""); err != nil || g != 1 {
		t.Fatalf("register = %d, %v", g, err)
	}
	if g, err := m.Record("alpha", "A"); err != nil || g != 2 {
		t.Fatalf("record = %d, %v", g, err)
	}
	if g, err := m.Register("custom", `{"name":"custom"}`); err != nil || g != 1 {
		t.Fatalf("register custom = %d, %v", g, err)
	}
	if g, err := m.Delete("alpha"); err != nil || g != 3 {
		t.Fatalf("delete = %d, %v", g, err)
	}
	digest := m.Digest()
	m.Close()

	m2, rec2 := mustOpen(t, dir)
	if rec2.Created || rec2.TornBytes != 0 {
		t.Fatalf("reopen recovery = %+v", rec2)
	}
	if rec2.Replayed != 4 {
		t.Fatalf("replayed %d records, want 4", rec2.Replayed)
	}
	if d := m2.Digest(); d != digest {
		t.Fatalf("digest changed across reopen: %s vs %s", d, digest)
	}
	e, ok := m2.Get("alpha")
	if !ok || !e.Deleted || e.Generation != 3 || e.HasSnapshot {
		t.Fatalf("alpha after replay = %+v", e)
	}
	c, ok := m2.Get("custom")
	if !ok || c.Deleted || c.Spec != `{"name":"custom"}` || c.Generation != 1 {
		t.Fatalf("custom after replay = %+v", c)
	}
	live := m2.Live()
	if len(live) != 1 || live[0].Name != "custom" {
		t.Fatalf("live = %+v", live)
	}
	if all := m2.Entries(); len(all) != 2 {
		t.Fatalf("entries = %+v", all)
	}
}

func TestGenerationsMonotonicAcrossDelete(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir)
	m.Register("fn", "")
	m.Record("fn", "A")
	m.Delete("fn")
	g, err := m.Register("fn", "")
	if err != nil || g != 4 {
		t.Fatalf("re-register after delete = %d, %v (generations must never restart)", g, err)
	}
	e, _ := m.Get("fn")
	if e.Deleted || e.HasSnapshot {
		t.Fatalf("re-registered entry = %+v", e)
	}
}

// TestOnlyClientMutationsMint: invalidate keeps the generation and a
// sync adopts its source's (never going backwards), and the adopted
// entry — journaled as one verbatim record — replays identically, both
// from the raw log and through compaction.
func TestOnlyClientMutationsMint(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir)
	m.Register("fn", `{"name":"fn"}`)
	m.Record("fn", "A")
	if err := m.Invalidate("fn"); err != nil {
		t.Fatal(err)
	}
	if e, _ := m.Get("fn"); e.HasSnapshot || e.Generation != 2 {
		t.Fatalf("invalidated entry = %+v", e)
	}
	if err := m.Invalidate("ghost"); err == nil {
		t.Fatal("invalidate of an unknown function succeeded")
	}

	// A live entry adopts the source's generation and keeps its own spec.
	if err := m.Adopt("fn", "ignored", "B", 5); err != nil {
		t.Fatal(err)
	}
	// A source behind the local copy cannot drag it backwards.
	if err := m.Adopt("fn", "", "B", 3); err != nil {
		t.Fatal(err)
	}
	// The first this journal hears of a function takes the given spec.
	if err := m.Adopt("new", `{"name":"new"}`, "A", 2); err != nil {
		t.Fatal(err)
	}
	// A tombstone at or above the source's generation refuses: among
	// equals the delete outranks the copy. One below it takes the copy.
	m.Register("gone", "")
	m.Delete("gone")
	for _, gen := range []uint64{1, 2} {
		if err := m.Adopt("gone", "", "A", gen); !errors.Is(err, ErrTombstoned) {
			t.Fatalf("adopt at %d over a tombstone at 2 = %v, want ErrTombstoned", gen, err)
		}
	}
	if e, _ := m.Get("gone"); !e.Deleted || e.HasSnapshot || e.Generation != 2 {
		t.Fatalf("tombstone after refused adopts = %+v", e)
	}
	if err := m.Adopt("gone", `{"name":"gone"}`, "A", 3); err != nil {
		t.Fatal(err)
	}
	want := m.Entries()
	if e := want[0]; e.Name != "fn" || e.Generation != 5 || !e.HasSnapshot || e.RecordInput != "B" || e.Spec != `{"name":"fn"}` {
		t.Fatalf("adopted entry = %+v", e)
	}
	if e := want[1]; e.Deleted || e.Generation != 3 || !e.HasSnapshot || e.Spec != `{"name":"gone"}` {
		t.Fatalf("entry adopted over a lower tombstone = %+v", e)
	}
	if e := want[2]; e.Generation != 2 || !e.HasSnapshot || e.Spec != `{"name":"new"}` {
		t.Fatalf("adopted new entry = %+v", e)
	}
	m.Close()

	m2, _ := mustOpen(t, dir)
	if got := m2.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed entries = %+v, want %+v", got, want)
	}
	m2.mu.Lock()
	err := m2.compactLocked()
	m2.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3, _ := mustOpen(t, dir)
	if got := m3.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries after compaction = %+v, want %+v", got, want)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	m, _ := mustOpen(t, t.TempDir())
	g1, _ := m.Register("fn", "")
	g2, _ := m.Register("fn", "")
	if g1 != g2 {
		t.Fatalf("re-register bumped generation %d -> %d", g1, g2)
	}
	// A changed spec is a real mutation.
	g3, _ := m.Register("fn", `{"name":"fn"}`)
	if g3 != g1+1 {
		t.Fatalf("spec change generation = %d, want %d", g3, g1+1)
	}
}

// TestQuarantinePathNeverCollides tears the journal's tail on several
// successive opens: each torn tail must be preserved under its own name
// (manifest.torn, manifest.torn.2, ...) with its own bytes, never
// overwriting the evidence of an earlier crash.
func TestQuarantinePathNeverCollides(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir)
	m.Register("keep", "")
	m.Close()

	path := filepath.Join(dir, ManifestName)
	var evidence []string
	for i := 0; i < 3; i++ {
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tail := []byte{0x46, 0x53, 0x4d, 0x4c, 0xff, byte(i)}
		if err := os.WriteFile(path, append(clean, tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		m, rec := mustOpen(t, dir)
		m.Close()
		if rec.TornBytes != len(tail) {
			t.Fatalf("open %d: torn bytes = %d, want %d", i, rec.TornBytes, len(tail))
		}
		evidence = append(evidence, rec.Evidence)
		for j, p := range evidence {
			b, err := os.ReadFile(p)
			if err != nil || b[len(b)-1] != byte(j) {
				t.Fatalf("after open %d, %s holds %v (%v), want tail %d", i, p, b, err, j)
			}
		}
	}
	qdir := filepath.Join(dir, "quarantine")
	want := []string{
		filepath.Join(qdir, "manifest.torn"),
		filepath.Join(qdir, "manifest.torn.2"),
		filepath.Join(qdir, "manifest.torn.3"),
	}
	if !reflect.DeepEqual(evidence, want) {
		t.Fatalf("evidence paths = %v, want %v", evidence, want)
	}
}

func TestTornTailTruncatedAndQuarantined(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir)
	m.Register("keep", "")
	m.Record("keep", "A")
	m.Close()

	// Simulate a crash mid-append: a partial frame at the tail.
	path := filepath.Join(dir, ManifestName)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, clean...), 0x46, 0x53, 0x4d, 0x4c, 0xff, 0x00)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, rec := mustOpen(t, dir)
	if rec.TornBytes != len(torn)-len(clean) {
		t.Fatalf("torn bytes = %d, want %d", rec.TornBytes, len(torn)-len(clean))
	}
	if rec.Evidence == "" {
		t.Fatal("torn tail not preserved as evidence")
	}
	if !strings.Contains(rec.Evidence, "quarantine") {
		t.Fatalf("evidence outside quarantine dir: %s", rec.Evidence)
	}
	if rec.Replayed != 2 {
		t.Fatalf("replayed = %d, want 2", rec.Replayed)
	}
	e, ok := m2.Get("keep")
	if !ok || !e.HasSnapshot {
		t.Fatalf("acknowledged state lost after torn tail: %+v", e)
	}
	// The journal must be usable again: append and reopen.
	if _, err := m2.Register("after", ""); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	m2.Close()
	m3, rec3 := mustOpen(t, dir)
	if rec3.TornBytes != 0 || rec3.Replayed != 3 {
		t.Fatalf("third open recovery = %+v", rec3)
	}
	if _, ok := m3.Get("after"); !ok {
		t.Fatal("post-truncation append lost")
	}
}

func TestCorruptMidRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir)
	m.Register("a", "")
	m.Register("b", "")
	m.Close()

	path := filepath.Join(dir, ManifestName)
	raw, _ := os.ReadFile(path)
	// Flip a byte inside the second frame's payload: CRC must catch it
	// and recovery must keep only the first record.
	raw[len(raw)-3] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	m2, rec := mustOpen(t, dir)
	if rec.Replayed != 1 || rec.TornBytes == 0 {
		t.Fatalf("recovery = %+v, want 1 replayed and a quarantined tail", rec)
	}
	if _, ok := m2.Get("b"); ok {
		t.Fatal("corrupt record served")
	}
	if _, ok := m2.Get("a"); !ok {
		t.Fatal("valid prefix lost")
	}
}

func TestCompaction(t *testing.T) {
	dir := t.TempDir()
	m, _ := mustOpen(t, dir)
	// Churn one function far past the compaction threshold.
	m.Register("fn", "")
	for i := 0; i < 300; i++ {
		if _, err := m.Record("fn", "A"); err != nil {
			t.Fatal(err)
		}
	}
	m.Register("other", "")
	m.Delete("other")
	digest := m.Digest()
	fi, err := os.Stat(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	// 302+ records at ~60 bytes each would be ~18KB uncompacted; after
	// compaction only the post-rewrite tail (at most the threshold's
	// worth of records) remains.
	if fi.Size() > 8*1024 {
		t.Fatalf("log not compacted: %d bytes", fi.Size())
	}
	m.Close()

	m2, rec := mustOpen(t, dir)
	if rec.TornBytes != 0 {
		t.Fatalf("compacted log torn: %+v", rec)
	}
	if d := m2.Digest(); d != digest {
		t.Fatalf("digest changed across compaction reopen: %s vs %s", d, digest)
	}
	e, _ := m2.Get("fn")
	if !e.HasSnapshot || e.Generation != 301 {
		t.Fatalf("fn after compaction = %+v", e)
	}
	o, _ := m2.Get("other")
	if !o.Deleted {
		t.Fatalf("tombstone lost in compaction: %+v", o)
	}
}

func TestDigestDiffersAcrossStates(t *testing.T) {
	m1, _ := mustOpen(t, t.TempDir())
	m2, _ := mustOpen(t, t.TempDir())
	m1.Register("fn", "")
	m2.Register("fn", "")
	if m1.Digest() != m2.Digest() {
		t.Fatal("equal states, unequal digests")
	}
	m2.Record("fn", "A")
	if m1.Digest() == m2.Digest() {
		t.Fatal("different states, equal digests")
	}
}
