package snapfile

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faasnap/internal/core"
	"faasnap/internal/workload"
)

func testArtifacts(t *testing.T) *core.Artifacts {
	t.Helper()
	fn, err := workload.ByName("hello-world")
	if err != nil {
		t.Fatal(err)
	}
	arts, _ := core.Record(core.DefaultHostConfig(), fn, fn.A)
	return arts
}

// write and read are the codec with the chunk map held fixed, for the
// tests that are about the artifact sections only.
func write(w io.Writer, arts *core.Artifacts) error {
	return WriteChunked(w, arts, testChunkMap(arts.Mem.Pages))
}

func read(r io.Reader) (*core.Artifacts, error) {
	arts, _, err := ReadChunked(r)
	return arts, err
}

func TestRoundTrip(t *testing.T) {
	arts := testArtifacts(t)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		t.Fatal(err)
	}
	got, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fn.Name != arts.Fn.Name {
		t.Fatalf("fn = %s, want %s", got.Fn.Name, arts.Fn.Name)
	}
	if got.RecordInput != arts.RecordInput {
		t.Fatalf("input = %+v, want %+v", got.RecordInput, arts.RecordInput)
	}
	if got.Mem.Pages != arts.Mem.Pages || got.Mem.NonZeroPages() != arts.Mem.NonZeroPages() {
		t.Fatalf("mem: %d/%d pages, want %d/%d", got.Mem.Pages, got.Mem.NonZeroPages(), arts.Mem.Pages, arts.Mem.NonZeroPages())
	}
	for p := int64(0); p < got.Mem.Pages; p += 977 {
		if got.Mem.IsZero(p) != arts.Mem.IsZero(p) {
			t.Fatalf("page %d zero-ness differs", p)
		}
	}
	if len(got.Alloc.Free) != len(arts.Alloc.Free) || got.Alloc.Next != arts.Alloc.Next {
		t.Fatalf("alloc = %d free/%d, want %d/%d", len(got.Alloc.Free), got.Alloc.Next, len(arts.Alloc.Free), arts.Alloc.Next)
	}
	if got.WS.Pages() != arts.WS.Pages() || len(got.WS.Groups) != len(arts.WS.Groups) {
		t.Fatalf("ws = %d pages/%d groups, want %d/%d", got.WS.Pages(), len(got.WS.Groups), arts.WS.Pages(), len(arts.WS.Groups))
	}
	if got.LS.Total != arts.LS.Total || len(got.LS.Regions) != len(arts.LS.Regions) {
		t.Fatalf("ls = %d/%d, want %d/%d", got.LS.Total, len(got.LS.Regions), arts.LS.Total, len(arts.LS.Regions))
	}
	for i := range got.LS.Regions {
		if got.LS.Regions[i] != arts.LS.Regions[i] || got.LS.Offsets[i] != arts.LS.Offsets[i] {
			t.Fatalf("ls region %d differs", i)
		}
	}
	if got.ReapWS.PageCount() != arts.ReapWS.PageCount() {
		t.Fatalf("reap = %d, want %d", got.ReapWS.PageCount(), arts.ReapWS.PageCount())
	}
	for i, p := range got.ReapWS.Pages {
		if p != arts.ReapWS.Pages[i] {
			t.Fatalf("reap page %d differs", i)
		}
	}
}

func TestRoundTripPreservesBehaviour(t *testing.T) {
	// The acid test: an invocation served from reloaded artifacts is
	// bit-identical to one served from the originals.
	arts := testArtifacts(t)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		t.Fatal(err)
	}
	reloaded, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a := core.RunSingle(core.DefaultHostConfig(), arts, core.ModeFaaSnap, arts.Fn.B)
	b := core.RunSingle(core.DefaultHostConfig(), reloaded, core.ModeFaaSnap, reloaded.Fn.B)
	if a.Total != b.Total || a.Faults.Total() != b.Faults.Total() {
		t.Fatalf("reloaded artifacts behave differently: %v/%d vs %v/%d",
			a.Total, a.Faults.Total(), b.Total, b.Faults.Total())
	}
}

func TestBadMagic(t *testing.T) {
	_, err := read(strings.NewReader("NOPE----------------"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("err = %v", err)
	}
}

func TestChecksumMismatch(t *testing.T) {
	arts := testArtifacts(t)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)/2] ^= 0xff
	_, err := read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("corrupted file read successfully")
	}
}

func TestTruncatedFile(t *testing.T) {
	arts := testArtifacts(t)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, n := range []int{0, 3, 10, len(data) / 2, len(data) - 1} {
		if _, err := read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("truncation to %d bytes read successfully", n)
		}
	}
}

func TestSaveLoad(t *testing.T) {
	arts := testArtifacts(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "hello-world.snap")
	if err := SaveChunked(path, arts, testChunkMap(arts.Mem.Pages)); err != nil {
		t.Fatal(err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("temp file left behind: %v", entries)
	}
	got, _, err := LoadChunked(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fn.Name != "hello-world" {
		t.Fatalf("fn = %s", got.Fn.Name)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := LoadChunked(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("load of missing file succeeded")
	}
}

// TestReadWithFault: a byte flipped mid-body fails the checksum, and a
// file cut in half fails section parsing. A nil error under either
// would mean the format's integrity checking has a hole.
func TestReadWithFault(t *testing.T) {
	arts := testArtifacts(t)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, _, err := ReadChunked(bytes.NewReader(data)); err != nil {
		t.Fatalf("clean read failed: %v", err)
	}
	if _, _, err := ReadChunked(bytes.NewReader(corrupt(data))); err == nil {
		t.Fatal("corrupted read passed the checksum")
	}
	if _, _, err := ReadChunked(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Fatal("truncated read succeeded")
	}
}

// corrupt returns a copy of data with its middle byte flipped, as a
// torn write or bad sector would leave it.
func corrupt(data []byte) []byte {
	out := append([]byte(nil), data...)
	out[len(out)/2] ^= 0xff
	return out
}

// TestVerify: LoadChunked is the verifier — it accepts a committed
// snapfile and rejects a corrupted or missing one.
func TestVerify(t *testing.T) {
	arts := testArtifacts(t)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.snap")
	if err := SaveChunked(good, arts, testChunkMap(arts.Mem.Pages)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadChunked(good); err != nil {
		t.Fatalf("load of valid snapfile: %v", err)
	}

	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	bad := filepath.Join(dir, "bad.snap")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadChunked(bad); err == nil {
		t.Fatal("load of corrupted snapfile passed")
	}
	if _, _, err := LoadChunked(filepath.Join(dir, "absent.snap")); err == nil {
		t.Fatal("load of missing snapfile passed")
	}
}

func TestCustomFunctionRoundTrip(t *testing.T) {
	cfg := workload.SpecConfig{
		Name: "custom-fn", BootMB: 100, StablePages: 2000, ChunkMean: 4,
		RetainFrac: 0.2, BaseMs: 20, PerPageUs: 1,
		InputA: workload.InputConfig{Bytes: 1 << 10, DataPages: 100},
		InputB: workload.InputConfig{Bytes: 2 << 10, DataPages: 200},
	}
	fn, err := cfg.Spec()
	if err != nil {
		t.Fatal(err)
	}
	arts, _ := core.Record(core.DefaultHostConfig(), fn, fn.A)
	var buf bytes.Buffer
	if err := write(&buf, arts); err != nil {
		t.Fatal(err)
	}
	got, err := read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fn.Name != "custom-fn" || got.Fn.Origin == nil {
		t.Fatalf("custom fn not restored: %+v", got.Fn)
	}
	if got.Fn.StablePages != 2000 || got.Fn.A.DataPages != 100 {
		t.Fatalf("custom fn params lost: %+v", got.Fn)
	}
	// And it serves invocations identically.
	a := core.RunSingle(core.DefaultHostConfig(), arts, core.ModeFaaSnap, fn.B)
	b := core.RunSingle(core.DefaultHostConfig(), got, core.ModeFaaSnap, got.Fn.B)
	if a.Total != b.Total {
		t.Fatalf("custom fn behaves differently after reload: %v vs %v", a.Total, b.Total)
	}
}
