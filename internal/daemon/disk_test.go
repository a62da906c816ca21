package daemon

import (
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing/fstest"

	"faasnap/internal/atomicfile"
)

// disk is the crash tests' in-memory state directory. What the process
// sees is a plain fstest.MapFS; beside it the disk keeps what a power cut
// would leave, by the rules of Pillai et al., "All File Systems Are Not
// Created Equal" (OSDI '14): a file's bytes as of its last fsync, a
// directory's entries as of the directory's last fsync, and nothing
// else. The daemon only ever appends to a file, so what a power cut
// keeps of one is its flushed bytes plus some prefix of what was
// appended since.
type disk struct {
	mu      sync.Mutex
	root    string
	files   fstest.MapFS
	flushed map[*fstest.MapFile]flush
	dirs    map[string]map[string]*fstest.MapFile // each directory's entries as of its last fsync
	temps   int
	// ops logs every mutating operation in order, named by paths under
	// root: "create x", "mkdir x", "write x", "fsync x", "fsync dir x",
	// "rename x → y", "remove x", "truncate x".
	ops []string
	// afterOp, when set, runs with mu held after each mutating operation
	// is logged.
	afterOp func()
}

// flush is a file's bytes as of its last fsync. cut is set once a
// truncate cut into them: the file is no longer those bytes plus a tail.
type flush struct {
	data []byte
	cut  bool
}

// crash is what a crash at one instant leaves of a disk: the process
// image is every write (a SIGKILLed process's writes are the kernel's),
// the durable image what survives a power cut.
type crash struct{ process, durable fstest.MapFS }

var diskSeq atomic.Int64

// mount serves files, all of them durable as after a boot, at a root of
// its own that exists nowhere on the real filesystem, until unmount.
func mount(files fstest.MapFS) (d *disk, unmount func()) {
	d = &disk{
		root:    filepath.Join(os.TempDir(), "faasnap-disk-"+strconv.FormatInt(diskSeq.Add(1), 10)),
		files:   files,
		flushed: map[*fstest.MapFile]flush{},
		dirs:    map[string]map[string]*fstest.MapFile{".": {}},
	}
	for name, f := range files {
		if !f.Mode.IsDir() {
			d.flushed[f] = flush{data: f.Data}
		} else if d.dirs[name] == nil {
			d.dirs[name] = map[string]*fstest.MapFile{}
		}
		if d.dirs[path.Dir(name)] == nil {
			d.dirs[path.Dir(name)] = map[string]*fstest.MapFile{}
		}
		d.dirs[path.Dir(name)][path.Base(name)] = f
	}
	return d, atomicfile.Mount(d.root, d)
}

// capture takes both images; rng draws how much of each file's
// unflushed tail the power cut keeps. Caller holds d.mu.
func (d *disk) capture(rng *rand.Rand) *crash {
	c := &crash{process: fstest.MapFS{}, durable: fstest.MapFS{}}
	for name, f := range d.files {
		c.process[name] = imageOf(f, f.Data)
	}
	var keep func(dir string)
	keep = func(dir string) {
		names := make([]string, 0, len(d.dirs[dir]))
		for name := range d.dirs[dir] {
			names = append(names, name)
		}
		sort.Strings(names) // rng draws in a fixed order
		for _, name := range names {
			f, p := d.dirs[dir][name], path.Join(dir, name)
			b := d.flushed[f].data
			if tail := len(f.Data) - len(b); !d.flushed[f].cut && tail > 0 {
				b = f.Data[:len(b)+rng.Intn(tail)]
			}
			if c.durable[p] = imageOf(f, b); f.Mode.IsDir() {
				keep(p)
			}
		}
	}
	keep(".")
	return c
}

// imageOf is f holding b, capped so no append through either copy shows
// through the other.
func imageOf(f *fstest.MapFile, b []byte) *fstest.MapFile {
	return &fstest.MapFile{Data: b[:len(b):len(b)], Mode: f.Mode}
}

func (d *disk) rel(name string) string {
	r, err := filepath.Rel(d.root, name)
	if err != nil {
		return "/" // not an fs.ValidPath: found nowhere
	}
	return filepath.ToSlash(r)
}

// tick logs one mutating operation and runs afterOp. Caller holds d.mu.
func (d *disk) tick(op string) {
	d.ops = append(d.ops, op)
	if d.afterOp != nil {
		d.afterOp()
	}
}

// isDir reports whether the directory r exists. Every directory but the
// root is made explicitly, so one map lookup answers.
func (d *disk) isDir(r string) bool { return r == "." || d.files[r] != nil && d.files[r].Mode.IsDir() }

// add puts f at name, whose directory must exist and which must not;
// verb names the operation in the log.
func (d *disk) add(verb, name string, f *fstest.MapFile) error {
	r := d.rel(name)
	if !d.isDir(path.Dir(r)) {
		return &fs.PathError{Op: "create", Path: name, Err: fs.ErrNotExist}
	}
	if d.files[r] != nil {
		return &fs.PathError{Op: "create", Path: name, Err: fs.ErrExist}
	}
	d.files[r] = f
	d.tick(verb + " " + r)
	return nil
}

func (d *disk) create(name string) (atomicfile.File, error) {
	f := &fstest.MapFile{Mode: 0o644}
	if err := d.add("create", name, f); err != nil {
		return nil, err
	}
	return &dfile{d: d, f: f, name: name}, nil
}

func (d *disk) OpenFile(name string, flag int, _ fs.FileMode) (atomicfile.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if flag&os.O_CREATE != 0 {
		return d.create(name)
	}
	r := d.rel(name)
	if d.files[r] == nil && !d.isDir(r) {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &dfile{d: d, f: d.files[r], dir: d.isDir(r), name: name}, nil
}

func (d *disk) CreateTemp(dir, pattern string) (atomicfile.File, error) {
	return locked(d, func() (atomicfile.File, error) {
		d.temps++
		return d.create(filepath.Join(dir, strings.Replace(pattern, "*", strconv.Itoa(d.temps), 1)))
	})
}

// locked runs f, one operation of d's, under d's lock.
func locked[T any](d *disk, f func() (T, error)) (T, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return f()
}

func (d *disk) ReadFile(name string) ([]byte, error) {
	return locked(d, func() ([]byte, error) { return d.files.ReadFile(d.rel(name)) })
}

func (d *disk) ReadDir(name string) ([]fs.DirEntry, error) {
	return locked(d, func() ([]fs.DirEntry, error) { return d.files.ReadDir(d.rel(name)) })
}

func (d *disk) Lstat(name string) (fs.FileInfo, error) {
	return locked(d, func() (fs.FileInfo, error) { return d.files.Stat(d.rel(name)) })
}

func (d *disk) Mkdir(name string, _ fs.FileMode) error {
	_, err := locked(d, func() (any, error) { return nil, d.add("mkdir", name, &fstest.MapFile{Mode: fs.ModeDir | 0o755}) })
	return err
}

func (d *disk) Rename(oldpath, newpath string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	from, to := d.rel(oldpath), d.rel(newpath)
	f, dst := d.files[from], d.files[to]
	if f == nil || f.Mode.IsDir() || !d.isDir(path.Dir(to)) || dst != nil && dst.Mode.IsDir() {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: fs.ErrInvalid}
	}
	delete(d.files, from)
	d.files[to] = f
	d.tick("rename " + from + " → " + to)
	return nil
}

func (d *disk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.rel(name)
	if d.files[r] == nil || d.isDir(r) {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(d.files, r)
	d.tick("remove " + r)
	return nil
}

func (d *disk) Truncate(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	r := d.rel(name)
	f := d.files[r]
	if f == nil || size > int64(len(f.Data)) {
		return fmt.Errorf("truncate %s to %d: %w", name, size, fs.ErrInvalid)
	}
	f.Data = f.Data[:size:size]
	if fl := d.flushed[f]; int(size) < len(fl.data) {
		d.flushed[f] = flush{data: fl.data, cut: true}
	}
	d.tick("truncate " + r)
	return nil
}

// dfile is an open file or directory of a disk.
type dfile struct {
	d    *disk
	f    *fstest.MapFile // nil for the root directory
	dir  bool
	name string
	off  int
}

func (f *dfile) Read(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.off >= len(f.f.Data) {
		return 0, io.EOF
	}
	k := copy(p, f.f.Data[f.off:])
	f.off += k
	return k, nil
}

func (f *dfile) ReadAt(p []byte, off int64) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if off >= int64(len(f.f.Data)) {
		return 0, io.EOF
	}
	k := copy(p, f.f.Data[off:])
	if k < len(p) {
		return k, io.EOF
	}
	return k, nil
}

func (f *dfile) Write(p []byte) (int, error) {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	f.f.Data = append(f.f.Data, p...)
	f.d.tick("write " + f.d.rel(f.name))
	return len(p), nil
}

func (f *dfile) Sync() error {
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	r := f.d.rel(f.name)
	if !f.dir {
		f.d.flushed[f.f] = flush{data: f.f.Data[:len(f.f.Data):len(f.f.Data)]}
		f.d.tick("fsync " + r)
		return nil
	}
	kids, _ := f.d.files.ReadDir(r)
	f.d.dirs[r] = map[string]*fstest.MapFile{}
	for _, k := range kids {
		f.d.dirs[r][k.Name()] = f.d.files[path.Join(r, k.Name())]
	}
	f.d.tick("fsync dir " + r)
	return nil
}

func (f *dfile) Close() error { return nil }
func (f *dfile) Name() string { return f.name }
