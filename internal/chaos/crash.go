package chaos

// Crashpoints: named places in the write path where a crash-consistency
// test takes its crash.
//
// A crashpoint is a statically named boundary (between a temp-file write
// and its rename, after a manifest append, after an HTTP reply) that the
// layer owning it passes with MaybeCrash. Nothing dies there: the
// daemon's crash tests observe the points (ObserveCrashpoints), capture
// what a SIGKILL and what a power cut would leave of the state directory
// at that instant, and recover fresh daemons over both (RESILIENCE.md,
// "Crash consistency & recovery"). Unobserved, MaybeCrash is one atomic
// load, so production pays nothing for the instrumentation staying wired
// in.

import (
	"sort"
	"sync/atomic"
)

// Crashpoint names. Each is owned by the layer that calls MaybeCrash
// with it; the comment says what has and has not happened when the
// process dies there.
const (
	// CrashSnapfilePreRename: snapfile temp file written and fsynced,
	// rename to the final .snap name not yet done. The commit must not
	// be visible after restart.
	CrashSnapfilePreRename = "snapfile.pre-rename"
	// CrashSnapfilePostRename: .snap renamed into place, parent
	// directory not yet fsynced. The file may or may not survive; if it
	// does it must be complete (its own bytes were fsynced first).
	CrashSnapfilePostRename = "snapfile.post-rename"
	// CrashManifestPreSync: a manifest record written to the journal
	// but not yet fsynced — the canonical torn-tail case.
	CrashManifestPreSync = "manifest.pre-sync"
	// CrashManifestPostAppend: a manifest record written and fsynced,
	// in-memory state not yet updated and no reply sent. The record is
	// durable; restart must replay it.
	CrashManifestPostAppend = "manifest.post-append"
	// CrashRecordPreJournal: the snapfile is committed but the manifest
	// record op is not yet journaled. The snapshot is an orphan; restart
	// must quarantine it, never serve it.
	CrashRecordPreJournal = "record.pre-journal"
	// CrashRecordPostReply: the record's HTTP reply has been written.
	// Everything acknowledged must survive restart.
	CrashRecordPostReply = "record.post-reply"
	// CrashRegisterPostJournal: a registration is journaled but the
	// reply not yet sent. Durable either way.
	CrashRegisterPostJournal = "register.post-journal"
	// CrashDeletePostJournal: a delete tombstone is journaled but the
	// .snap file not yet removed. The function must stay deleted after
	// restart; the leftover file must not resurrect it.
	CrashDeletePostJournal = "delete.post-journal"
	// CrashChunkPreRename: a CAS chunk's temp file is written and
	// fsynced, the rename to its digest name not yet done. The chunk
	// must not be visible after restart and the temp file must be swept.
	CrashChunkPreRename = "cas.chunk-pre-rename"
	// CrashChunkPostRename: a CAS chunk is renamed into place but the
	// record that was writing it never finished. The chunk is durable
	// but unreferenced — recovery's refcount sweep must collect it.
	CrashChunkPostRename = "cas.chunk-post-rename"
	// CrashRecordPostChunks: every chunk of a recording is committed to
	// the CAS but the snapfile referencing them is not yet written. The
	// recording was never acknowledged; restart must not serve it and
	// the orphan chunks must be collected.
	CrashRecordPostChunks = "record.post-chunks"
)

// crashpoints is the registry of every name MaybeCrash is passed.
var crashpoints = map[string]bool{
	CrashSnapfilePreRename:   true,
	CrashSnapfilePostRename:  true,
	CrashManifestPreSync:     true,
	CrashManifestPostAppend:  true,
	CrashRecordPreJournal:    true,
	CrashRecordPostReply:     true,
	CrashRegisterPostJournal: true,
	CrashDeletePostJournal:   true,
	CrashChunkPreRename:      true,
	CrashChunkPostRename:     true,
	CrashRecordPostChunks:    true,
}

// Crashpoints returns every defined crashpoint name, sorted; the
// daemon's crash matrix iterates this list so a new crashpoint is
// covered the moment it is declared.
func Crashpoints() []string {
	out := make([]string, 0, len(crashpoints))
	for p := range crashpoints {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// observer receives every crashpoint passed; nil when nobody observes.
var observer atomic.Pointer[func(point string)]

// ObserveCrashpoints arms fn: until restore is called, every MaybeCrash
// reports its point to fn. Observation is process-global, so the tests
// that use it run serially.
func ObserveCrashpoints(fn func(point string)) (restore func()) {
	observer.Store(&fn)
	return func() { observer.Store(nil) }
}

// MaybeCrash passes the named crashpoint: it reports it to the observer,
// if one is armed. Call it at the exact boundary the name documents; ""
// (a write path with no crashpoint at this step) reports nothing.
func MaybeCrash(point string) {
	if fn := observer.Load(); fn != nil && point != "" {
		(*fn)(point)
	}
}
