package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// tracer is the OS filesystem with every flush recorded, tagged file or
// dir, the failSync'th flush failed, and every rename recorded.
type tracer struct {
	osFS
	steps           []string
	syncs, failSync int
	// aroundRename, when set, runs just before a rename and, if it
	// succeeded, just after it.
	aroundRename func(renamed bool)
}

func (tr *tracer) Rename(oldpath, newpath string) error {
	tr.steps = append(tr.steps, "rename")
	if tr.aroundRename != nil {
		tr.aroundRename(false)
	}
	err := tr.osFS.Rename(oldpath, newpath)
	if tr.aroundRename != nil && err == nil {
		tr.aroundRename(true)
	}
	return err
}

func (tr *tracer) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := tr.osFS.OpenFile(name, flag, perm)
	return tracedFile{f, tr}, err
}

func (tr *tracer) CreateTemp(dir, pattern string) (File, error) {
	f, err := tr.osFS.CreateTemp(dir, pattern)
	return tracedFile{f, tr}, err
}

type tracedFile struct {
	File
	tr *tracer
}

func (f tracedFile) Sync() error {
	kind := "fsync-file"
	if st, err := os.Stat(f.Name()); err == nil && st.IsDir() {
		kind = "fsync-dir"
	}
	f.tr.steps = append(f.tr.steps, kind)
	if f.tr.syncs++; f.tr.syncs == f.tr.failSync {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// traceSteps mounts a tracer over dir.
func traceSteps(t *testing.T, dir string, failSync int) *tracer {
	t.Helper()
	tr := &tracer{failSync: failSync}
	t.Cleanup(Mount(dir, tr))
	return tr
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestWriteOrder pins the durability sequence every caller inherits:
// one file fsync before the rename, one directory fsync after it — and
// the final name is invisible before the rename and holds the complete
// payload right after it. The counts are the ones each of the four
// callers had at c632c18: a chunk put, a snapfile commit, a demotion and
// a compaction each pay exactly one file fsync and one directory fsync,
// in this order.
func TestWriteOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fn.snap")
	payload := []byte("snapshot bytes")

	var atPre, atPost string
	tr := traceSteps(t, dir, 0)
	tr.aroundRename = func(renamed bool) {
		raw, err := os.ReadFile(path)
		switch {
		case !renamed && err == nil:
			atPre = "final file visible before the rename"
		case !renamed:
			if tmps, _ := filepath.Glob(filepath.Join(dir, "fn.snap.*.tmp")); len(tmps) != 1 {
				atPre = "temp file does not carry the fn.snap.*.tmp name the recovery sweeps match"
			}
		case err != nil || string(raw) != string(payload):
			atPost = "final file incomplete right after the rename"
		}
	}

	err := Write(path, func(w io.Writer) error {
		tr.steps = append(tr.steps, "write")
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"write", "fsync-file", "rename", "fsync-dir"}
	if !reflect.DeepEqual(tr.steps, want) {
		t.Fatalf("steps = %v, want %v", tr.steps, want)
	}
	if atPre != "" || atPost != "" {
		t.Fatal(atPre, atPost)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"fn.snap"}) {
		t.Fatalf("directory holds %v after a commit, want only the final file", names)
	}
}

// TestWriteEmptyFlushesBoth: a write of nothing (the journal's empty
// start) pays the same file and directory flushes.
func TestWriteEmptyFlushesBoth(t *testing.T) {
	dir := t.TempDir()
	tr := traceSteps(t, dir, 0)
	if err := Write(filepath.Join(dir, "manifest.log"), func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"fsync-file", "rename", "fsync-dir"}; !reflect.DeepEqual(tr.steps, want) {
		t.Fatalf("steps = %v, want %v", tr.steps, want)
	}
}

// TestWriteFailureLeavesNothing: a failure at write, at the file fsync
// or at the rename leaves neither a temp file nor a (new) final file,
// and no later step runs.
func TestWriteFailureLeavesNothing(t *testing.T) {
	ok := func(w io.Writer) error { _, err := w.Write([]byte("x")); return err }
	cases := []struct {
		name      string
		failSync  int
		write     func(io.Writer) error
		blockName bool // make the rename fail: the final name is a non-empty directory
		wantSteps []string
	}{
		{name: "write", write: func(io.Writer) error { return errors.New("injected write failure") }},
		{name: "fsync", failSync: 1, write: ok, wantSteps: []string{"fsync-file"}},
		{name: "rename", write: ok, blockName: true, wantSteps: []string{"fsync-file", "rename"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tr := traceSteps(t, dir, tc.failSync)
			path := filepath.Join(dir, "target")
			var want []string
			if tc.blockName {
				if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
					t.Fatal(err)
				}
				want = []string{"target"}
			}
			if err := Write(path, tc.write); err == nil {
				t.Fatal("Write succeeded despite the injected failure")
			}
			if !reflect.DeepEqual(tr.steps, tc.wantSteps) {
				t.Fatalf("steps = %v, want %v", tr.steps, tc.wantSteps)
			}
			if names := dirNames(t, dir); !reflect.DeepEqual(names, want) {
				t.Fatalf("directory holds %v after a failed commit, want %v", names, want)
			}
		})
	}
}

// TestMkdirAllFlushesParents: every directory MkdirAll creates is made
// durable in its parent, one flush each; an existing one costs none.
func TestMkdirAllFlushesParents(t *testing.T) {
	dir := t.TempDir()
	tr := traceSteps(t, dir, 0)
	if err := MkdirAll(filepath.Join(dir, "cas", "chunks", "ab")); err != nil {
		t.Fatal(err)
	}
	if want := []string{"fsync-dir", "fsync-dir", "fsync-dir"}; !reflect.DeepEqual(tr.steps, want) {
		t.Fatalf("creating three directories: steps = %v, want %v", tr.steps, want)
	}
	tr.steps = nil
	if err := MkdirAll(filepath.Join(dir, "cas", "chunks", "ab")); err != nil || len(tr.steps) != 0 {
		t.Fatalf("existing directory: err %v, steps %v, want no flush", err, tr.steps)
	}
}

// TestQuarantineNamesNeverCollide: repeated quarantines of one name —
// moved files and written bytes alike — land under base, base.2,
// base.3, ..., and no earlier piece of evidence is overwritten.
func TestQuarantineNamesNeverCollide(t *testing.T) {
	dir := t.TempDir()
	var got []string
	for i := 0; i < 5; i++ {
		evidence := fmt.Sprintf("copy %d", i)
		src, raw := "", []byte(evidence)
		if i%2 == 0 {
			src, raw = filepath.Join(dir, "fn.snap"), nil
			if err := os.WriteFile(src, []byte(evidence), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		dst, err := Quarantine(dir, "fn.snap", src, raw)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, filepath.Base(dst))
		for j, name := range got {
			if b, err := os.ReadFile(filepath.Join(dir, "quarantine", name)); err != nil || string(b) != fmt.Sprintf("copy %d", j) {
				t.Fatalf("after quarantine %d, %s holds %q (%v), want copy %d", i, name, b, err, j)
			}
		}
	}
	if want := []string{"fn.snap", "fn.snap.2", "fn.snap.3", "fn.snap.4", "fn.snap.5"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quarantine names = %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "fn.snap")); !os.IsNotExist(err) {
		t.Fatalf("quarantined file still in place: %v", err)
	}
}
