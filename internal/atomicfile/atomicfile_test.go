package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"faasnap/internal/chaos"
)

// traceSteps records, in order, every fsync (tagged file or dir) and
// every crashpoint Write passes (also handed to atPoint when non-nil),
// optionally failing the nth fsync.
func traceSteps(t *testing.T, failSync int, atPoint func(point string)) *[]string {
	t.Helper()
	var steps []string
	syncs := 0
	fsync = func(f *os.File) error {
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		kind := "fsync-file"
		if st.IsDir() {
			kind = "fsync-dir"
		}
		steps = append(steps, kind)
		if syncs++; syncs == failSync {
			return errors.New("injected fsync failure")
		}
		return f.Sync()
	}
	restore := chaos.ObserveCrashpoints(func(p string) {
		steps = append(steps, p)
		if atPoint != nil {
			atPoint(p)
		}
	})
	t.Cleanup(func() {
		fsync = (*os.File).Sync
		restore()
	})
	return &steps
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
// one file fsync before the rename, one directory fsync after it, the
// two crashpoints on either side of the rename — and at the post-rename
// crashpoint the final name already holds the complete payload. The
// counts are the ones each of the four callers had at c632c18: a chunk
// put, a snapfile commit, a demotion and a compaction each pay exactly
// one file fsync and one directory fsync, in this order.
func TestWriteOrder(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fn.snap")
	payload := []byte("snapshot bytes")

	var atPre, atPost string
	steps := traceSteps(t, 0, func(p string) {
		raw, err := os.ReadFile(path)
		switch p {
		case "pre":
			if err == nil {
				atPre = "final file visible before the rename"
			}
			if tmps, _ := filepath.Glob(filepath.Join(dir, "fn.snap.*.tmp")); len(tmps) != 1 {
				atPre = "temp file does not carry the fn.snap.*.tmp name the recovery sweeps match"
			}
		case "post":
			if err != nil || string(raw) != string(payload) {
				atPost = "final file incomplete at the post-rename crashpoint"
			}
		}
	})

	err := Write(path, "pre", "post", func(w io.Writer) error {
		*steps = append(*steps, "write")
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"write", "fsync-file", "pre", "post", "fsync-dir"}
	if !reflect.DeepEqual(*steps, want) {
		t.Fatalf("steps = %v, want %v", *steps, want)
	}
	if atPre != "" || atPost != "" {
		t.Fatal(atPre, atPost)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"fn.snap"}) {
		t.Fatalf("directory holds %v after a commit, want only the final file", names)
	}
}

// TestWriteWithoutCrashpoints: callers with no crashpoints (demotion,
// compaction) pass empty names and get the same flushes.
func TestWriteWithoutCrashpoints(t *testing.T) {
	steps := traceSteps(t, 0, nil)
	path := filepath.Join(t.TempDir(), "manifest.log")
	if err := Write(path, "", "", func(w io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if want := []string{"fsync-file", "fsync-dir"}; !reflect.DeepEqual(*steps, want) {
		t.Fatalf("steps = %v, want %v", *steps, want)
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
		{name: "rename", write: ok, blockName: true, wantSteps: []string{"fsync-file", "pre"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			steps := traceSteps(t, tc.failSync, nil)
			dir := t.TempDir()
			path := filepath.Join(dir, "target")
			var want []string
			if tc.blockName {
				if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
					t.Fatal(err)
				}
				want = []string{"target"}
			}
			if err := Write(path, "pre", "post", tc.write); err == nil {
				t.Fatal("Write succeeded despite the injected failure")
			}
			if !reflect.DeepEqual(*steps, tc.wantSteps) {
				t.Fatalf("steps = %v, want %v", *steps, tc.wantSteps)
			}
			if names := dirNames(t, dir); !reflect.DeepEqual(names, want) {
				t.Fatalf("directory holds %v after a failed commit, want %v", names, want)
			}
		})
	}
}
