// Package atomicfile is the daemon's one durable-write primitive: the
// sequence that makes a file either absent or complete under its final
// name, whatever instant the process or the machine dies. Snapfile
// commits, chunk puts, cold-tier demotions and manifest compaction all
// go through Write, so the discipline cannot drift between them.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"

	"faasnap/internal/chaos"
)

// fsync is the durability flush, a variable so the package's tests can
// count the flushes and fail one.
var fsync = (*os.File).Sync

// Write commits what write produces to path:
//
//	create <base>.*.tmp beside path → write → fsync the file → close
//	→ [preRename] → rename onto path → [postRename] → fsync the directory
//
// Without the file fsync a crash after the rename can leave the
// committed name pointing at empty or torn data (a rename orders
// metadata, not the file's pages); without the directory fsync the
// rename itself may not survive power loss. The temp file keeps the
// *.tmp suffix the recovery sweeps match and is removed on every error.
//
// preRename and postRename name the chaos crashpoints on either side of
// the rename ("" where a write path has none): dying at the first must
// leave the commit invisible; dying at the second leaves a file that is
// complete if it survived at all.
func Write(path, preRename, postRename string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err = write(f); err == nil {
		err = fsync(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	chaos.MaybeCrash(preRename)
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	chaos.MaybeCrash(postRename)
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return fsync(d)
}
