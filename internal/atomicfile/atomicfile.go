// Package atomicfile is the one owner of the daemon's state directory:
// every file and directory operation of the chunk store, the journal,
// the snapfiles and the daemon's own sweeps goes through it. Write is the
// one durable-write primitive — the sequence that makes a file either
// absent or complete under its final name, whatever instant the process
// or the machine dies — and MkdirAll the one way a directory is made, so
// the flush discipline cannot drift between callers.
//
// Every call goes straight to the operating system unless a test has
// mounted another filesystem over the path's root (Mount): the daemon's
// crash tests mount an in-memory disk that tracks what each flush made
// durable, and recover daemons over what a SIGKILL or a power cut would
// leave of it.
package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
)

// FS is a filesystem mounted under a root. Its methods behave as the os
// functions of the same names.
type FS interface {
	// OpenFile is called with O_RDONLY (files and directories),
	// O_WRONLY|O_APPEND, or O_WRONLY|O_CREATE|O_EXCL.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]fs.DirEntry, error)
	Lstat(name string) (fs.FileInfo, error)
	Mkdir(name string, perm fs.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
}

// File is an open file or directory. Sync flushes a file's bytes, or a
// directory's entries.
type File interface {
	io.ReadWriteCloser
	io.ReaderAt
	Sync() error
	Name() string
}

// osFS serves every path no filesystem is mounted over.
type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return file(os.OpenFile(name, flag, perm))
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return file(os.CreateTemp(dir, pattern)) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Lstat(name string) (fs.FileInfo, error)       { return os.Lstat(name) }
func (osFS) Mkdir(name string, perm fs.FileMode) error    { return os.Mkdir(name, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error       { return os.Truncate(name, size) }

// file keeps a failed open's nil *os.File from becoming a non-nil File.
func file(f *os.File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

var (
	mountMu sync.Mutex
	// mounts maps each mounted root to its filesystem; replaced whole
	// under mountMu, so the lookup on every call is one atomic load.
	mounts atomic.Pointer[map[string]FS]
)

// Mount serves every path at or under root from fsys until unmount is
// called. It is the package's one test hook.
func Mount(root string, fsys FS) (unmount func()) {
	root = filepath.Clean(root)
	remount(func(m map[string]FS) { m[root] = fsys })
	return func() { remount(func(m map[string]FS) { delete(m, root) }) }
}

func remount(edit func(map[string]FS)) {
	mountMu.Lock()
	defer mountMu.Unlock()
	next := map[string]FS{}
	if cur := mounts.Load(); cur != nil {
		maps.Copy(next, *cur)
	}
	edit(next)
	mounts.Store(&next)
}

// on returns the filesystem path lives on.
func on(path string) FS {
	if m := mounts.Load(); m != nil {
		for root, fsys := range *m {
			if path == root || strings.HasPrefix(path, root+string(filepath.Separator)) {
				return fsys
			}
		}
	}
	return osFS{}
}

// Write commits what write produces to path:
//
//	create <base>.*.tmp beside path → write → fsync the file → close
//	→ rename onto path → fsync the directory
//
// Without the file fsync a crash after the rename can leave the
// committed name pointing at empty or torn data (a rename orders
// metadata, not the file's pages); without the directory fsync the
// rename itself may not survive power loss. The temp file keeps the
// *.tmp suffix the recovery sweeps match and is removed on every error.
// Dying before the rename leaves the commit invisible; dying after it
// leaves a file that is complete if it survived at all.
func Write(path string, write func(io.Writer) error) error {
	p, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(p); err != nil {
		p.Abort()
		return err
	}
	return p.Commit()
}

// Pending is Write taken apart, for a writer that appends from several
// goroutines: the temp file of a commit to path, written directly,
// invisible until Commit and gone after Abort.
type Pending struct {
	File
	fsys FS
	path string
}

// Create starts a commit to path by creating its temp file.
func Create(path string) (*Pending, error) {
	fsys := on(path)
	f, err := fsys.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return nil, err
	}
	return &Pending{File: f, fsys: fsys, path: path}, nil
}

// Commit flushes and closes the temp file, renames it onto its path and
// flushes the directory (see Write); on failure the temp file is gone.
func (p *Pending) Commit() (err error) {
	tmp := p.Name()
	err = p.Sync()
	if cerr := p.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = p.fsys.Rename(tmp, p.path)
	}
	if err != nil {
		p.fsys.Remove(tmp)
		return err
	}
	return syncDir(p.fsys, filepath.Dir(p.path))
}

// Abort closes and removes the temp file.
func (p *Pending) Abort() {
	p.Close()
	p.fsys.Remove(p.Name())
}

func syncDir(fsys FS, dir string) error {
	d, err := fsys.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// MkdirAll creates path and any missing parents, and flushes the parent
// of every directory it creates (or finds created by a concurrent
// caller): a directory's name is an entry of its parent, so without that
// flush a power cut can drop the directory and every file committed in
// it, however durably those files were written.
func MkdirAll(path string) error {
	fsys := on(path)
	if fi, err := fsys.Lstat(path); err == nil {
		if fi.IsDir() {
			return nil
		}
		return &fs.PathError{Op: "mkdir", Path: path, Err: fs.ErrExist}
	}
	parent := filepath.Dir(path)
	if parent != path {
		if err := MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := fsys.Mkdir(path, 0o755); err != nil && !errors.Is(err, fs.ErrExist) {
		return err
	}
	return syncDir(fsys, parent)
}

// Open opens path for reading.
func Open(path string) (File, error) { return on(path).OpenFile(path, os.O_RDONLY, 0) }

// OpenAppend opens the existing file at path for appending; what is
// appended is durable once the caller syncs it.
func OpenAppend(path string) (File, error) {
	return on(path).OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
}

func ReadFile(path string) ([]byte, error)       { return on(path).ReadFile(path) }
func ReadDir(path string) ([]fs.DirEntry, error) { return on(path).ReadDir(path) }
func Remove(path string) error                   { return on(path).Remove(path) }

// Truncate cuts the file at path to size bytes; like any change to the
// file, that is durable once the file is next synced.
func Truncate(path string, size int64) error { return on(path).Truncate(path, size) }

// exists reports whether anything is at path.
func exists(path string) bool {
	_, err := on(path).Lstat(path)
	return err == nil
}

// Walk calls fn for every file below root, in lexical order; a missing
// root holds none.
func Walk(root string, fn func(path string, d fs.DirEntry) error) error {
	entries, err := ReadDir(root)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		path := filepath.Join(root, e.Name())
		if e.IsDir() {
			err = Walk(path, fn)
		} else {
			err = fn(path, e)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Quarantine preserves evidence under stateDir/quarantine/ and returns
// where: the file at src is moved there or, when src is "", raw is
// written there. The name is base if free, else base.2, base.3, ... —
// repeated quarantines of one name never overwrite earlier evidence. The
// move is not flushed: if a power cut undoes it, the next recovery finds
// the file where it was and judges it again.
func Quarantine(stateDir, base, src string, raw []byte) (string, error) {
	qdir := filepath.Join(stateDir, "quarantine")
	if err := MkdirAll(qdir); err != nil {
		return "", err
	}
	fsys, dst := on(qdir), filepath.Join(qdir, base)
	for i := 2; exists(dst); i++ {
		dst = fmt.Sprintf("%s.%d", filepath.Join(qdir, base), i)
	}
	if src != "" {
		return dst, fsys.Rename(src, dst)
	}
	f, err := fsys.OpenFile(dst, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return "", err
	}
	_, err = f.Write(raw)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return dst, err
}

// Writable checks that dir accepts a new file by creating and removing
// one. The probe is named *.tmp, so a crash between the two leaves
// nothing the recovery sweeps do not remove.
func Writable(dir string) error {
	fsys := on(dir)
	f, err := fsys.CreateTemp(dir, ".writable-*.tmp")
	if err != nil {
		return err
	}
	f.Close()
	return fsys.Remove(f.Name())
}
