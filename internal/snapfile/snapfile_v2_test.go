package snapfile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testChunkMap builds a plausible chunk map for arts without importing
// the chunk builder (casstore depends on this package, not vice versa).
func testChunkMap(pages int64) *ChunkMap {
	cm := &ChunkMap{ChunkPages: 64}
	for start := int64(0); start < pages && len(cm.Refs) < 8; start += 64 {
		n := int64(64)
		if start+n > pages {
			n = pages - start
		}
		ref := ChunkRef{
			Digest:    sha256.Sum256([]byte{byte(start), byte(start >> 8)}),
			StartPage: start,
			Pages:     n,
			Bytes:     n * 4096,
			LS:        start == 0,
			Group:     -1,
		}
		if ref.LS {
			ref.Group = 0
		}
		cm.Refs = append(cm.Refs, ref)
	}
	return cm
}

func TestChunkedRoundTrip(t *testing.T) {
	arts := testArtifacts(t)
	cm := testChunkMap(arts.Mem.Pages)
	var buf bytes.Buffer
	if err := WriteChunked(&buf, arts, cm); err != nil {
		t.Fatal(err)
	}
	got, gotCM, err := ReadChunked(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fn.Name != arts.Fn.Name {
		t.Fatalf("fn = %s, want %s", got.Fn.Name, arts.Fn.Name)
	}
	if gotCM == nil {
		t.Fatal("chunk map lost in round trip")
	}
	if gotCM.ChunkPages != cm.ChunkPages || len(gotCM.Refs) != len(cm.Refs) {
		t.Fatalf("chunk map = %d pages/%d refs, want %d/%d",
			gotCM.ChunkPages, len(gotCM.Refs), cm.ChunkPages, len(cm.Refs))
	}
	for i := range cm.Refs {
		if gotCM.Refs[i] != cm.Refs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, gotCM.Refs[i], cm.Refs[i])
		}
	}
	if tot, ls := gotCM.TotalBytes(), gotCM.LSBytes(); tot != cm.TotalBytes() || ls != cm.LSBytes() {
		t.Fatalf("byte totals %d/%d, want %d/%d", tot, ls, cm.TotalBytes(), cm.LSBytes())
	}
}

// withVersion returns a copy of an encoded snapfile with its version
// field rewritten.
func withVersion(file []byte, v uint64) []byte {
	out := append([]byte(nil), file...)
	binary.LittleEndian.PutUint64(out[len(magic):], v)
	return out
}

// TestUnknownVersionsRejected: there is one wire version. A file
// claiming version 1 (a format with no chunk map, never shipped) or a
// future one is refused by name, before any section is parsed.
func TestUnknownVersionsRejected(t *testing.T) {
	arts := testArtifacts(t)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 1, 3} {
		_, _, err := ReadChunked(bytes.NewReader(withVersion(buf.Bytes(), v)))
		if err == nil || !strings.Contains(err.Error(), "unsupported version") {
			t.Fatalf("version %d: err = %v, want unsupported version", v, err)
		}
	}
}

func TestChunkedSaveLoad(t *testing.T) {
	arts := testArtifacts(t)
	cm := testChunkMap(arts.Mem.Pages)
	path := filepath.Join(t.TempDir(), "fn.snap")
	if err := SaveChunked(path, arts, cm); err != nil {
		t.Fatal(err)
	}
	got, gotCM, err := LoadChunked(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fn.Name != arts.Fn.Name || gotCM == nil || len(gotCM.Refs) != len(cm.Refs) {
		t.Fatalf("load = %s, %v", got.Fn.Name, gotCM)
	}
}

// TestCommitRaw: peer-fetched snapfile bytes land atomically and load
// back identically; corrupt bytes must be rejected by the caller's
// decode (CommitRaw itself trusts its input is verified).
func TestCommitRaw(t *testing.T) {
	arts := testArtifacts(t)
	cm := testChunkMap(arts.Mem.Pages)
	var buf bytes.Buffer
	if err := WriteChunked(&buf, arts, cm); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fn.snap")
	if err := CommitRaw(path, buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	got, gotCM, err := LoadChunked(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fn.Name != arts.Fn.Name || gotCM == nil {
		t.Fatalf("commit-raw round trip = %s, cm=%v", got.Fn.Name, gotCM)
	}
}

// TestChunkedCorruptions: targeted damage to the v2 chunk section must
// fail decode, never panic or read torn refs.
func TestChunkedCorruptions(t *testing.T) {
	arts := testArtifacts(t)
	cm := testChunkMap(arts.Mem.Pages)
	var buf bytes.Buffer
	if err := WriteChunked(&buf, arts, cm); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := map[string]func([]byte) []byte{
		"truncated-tail": func(b []byte) []byte { return b[:len(b)-len(b)/4] },
		"flip-mid": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0xff
			return c
		},
		"flip-near-end": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-16] ^= 0x01
			return c
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := ReadChunked(bytes.NewReader(corrupt(valid))); err == nil {
				t.Fatal("corrupt v2 file decoded cleanly")
			}
		})
	}
}

// TestChunkedLoadWithFault mirrors TestReadWithFault for v2 files on
// disk: LoadChunked rejects a committed snapfile damaged in place.
func TestChunkedLoadWithFault(t *testing.T) {
	arts := testArtifacts(t)
	cm := testChunkMap(arts.Mem.Pages)
	path := filepath.Join(t.TempDir(), "fn.snap")
	if err := SaveChunked(path, arts, cm); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damaged := filepath.Join(t.TempDir(), "damaged.snap")
	load := func(data []byte) error {
		if err := os.WriteFile(damaged, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadChunked(damaged)
		return err
	}
	if load(corrupt(raw)) == nil {
		t.Fatal("corrupt fault not detected")
	}
	if load(raw[:len(raw)/2]) == nil {
		t.Fatal("truncate fault not detected")
	}
	got, gotCM, err := LoadChunked(path)
	if err != nil || gotCM == nil {
		t.Fatalf("clean faultless load = %v, cm=%v", err, gotCM)
	}
	_ = got
}

// TestChunkRefValidation: refs that point outside the memory file or
// carry absurd counts must be rejected at decode.
func TestChunkRefValidation(t *testing.T) {
	arts := testArtifacts(t)
	cm := testChunkMap(arts.Mem.Pages)
	// A ref past the end of memory.
	bad := *cm
	bad.Refs = append([]ChunkRef(nil), cm.Refs...)
	bad.Refs[0].StartPage = arts.Mem.Pages
	bad.Refs[0].Pages = 64
	var buf bytes.Buffer
	if err := WriteChunked(&buf, arts, &bad); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadChunked(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("out-of-range chunk ref decoded cleanly")
	} else if !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("error does not name the chunk section: %v", err)
	}

	// A ref whose page count exceeds the map's granularity fails inside
	// readChunkMap (which returns nil): the reader must surface the
	// error, not dereference the nil map. CRC-valid on purpose — the
	// checksum cannot catch a semantically invalid ref.
	over := *cm
	over.Refs = append([]ChunkRef(nil), cm.Refs...)
	over.Refs[0].Pages = over.ChunkPages + 1
	over.Refs[0].Bytes = over.Refs[0].Pages * 4096
	buf.Reset()
	if err := WriteChunked(&buf, arts, &over); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadChunked(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("oversized chunk ref decoded cleanly")
	} else if !strings.Contains(err.Error(), "chunk") {
		t.Fatalf("error does not name the chunk section: %v", err)
	}

	// Same for a bad granularity, which fails before any ref is read.
	grain := *cm
	grain.ChunkPages = 0
	buf.Reset()
	if err := WriteChunked(&buf, arts, &grain); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadChunked(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("zero-granularity chunk map decoded cleanly")
	}
}
