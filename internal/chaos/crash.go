package chaos

// Crashpoints: named process-kill sites for crash-consistency testing.
//
// A crashpoint is a statically named place in the write path (between
// a temp-file write and its rename, after a manifest append, after an
// HTTP reply) where the process can be made to die *abruptly* — no
// deferred cleanup, no flushing, exactly what power loss or an OOM
// SIGKILL leaves behind. The crashtest harness arms one crashpoint,
// drives the daemon until it dies there, restarts it, and asserts the
// recovery invariants (RESILIENCE.md, "Crash consistency & recovery").
//
// Unlike the probabilistic fault rules in this package, crashpoints
// are deterministic and process-global: exactly one can be armed (via
// the FAASNAP_CRASHPOINT environment variable or faasnapd's
// -crashpoint flag), it fires on its Nth hit (default first), and
// firing kills the process with SIGKILL. MaybeCrash on an unarmed
// process is one atomic load, so production pays nothing for the
// instrumentation staying wired in.

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// EnvCrashpoint is the environment variable the daemon consults at
// start to arm a crashpoint: "point" or "point:N" to die on the Nth
// hit.
const EnvCrashpoint = "FAASNAP_CRASHPOINT"

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

// crashpoints is the registry of valid names; arming anything else is
// an error so a typo in a harness cannot silently test nothing.
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
// crashtest harness iterates this list so a new crashpoint is covered
// the moment it is declared.
func Crashpoints() []string {
	out := make([]string, 0, len(crashpoints))
	for p := range crashpoints {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// armedCrash is the one armed crashpoint, nil when disarmed.
type armedCrash struct {
	point   string
	after   int64 // fire on the Nth hit, 1-based
	hits    atomic.Int64
	observe func(point string) // see ObserveCrashpoints
}

var armed atomic.Pointer[armedCrash]

// crashNow kills the process. SIGKILL (not os.Exit) so the death is
// indistinguishable from the kernel's: no exit handlers, no buffered
// writes, no HTTP response flush. The exit fallback and select guard
// only matter in the test override and on platforms where the signal
// cannot be delivered to self.
var crashNow = func(point string) {
	fmt.Fprintf(os.Stderr, "chaos: crashpoint %s firing, killing process\n", point)
	if p, err := os.FindProcess(os.Getpid()); err == nil {
		_ = p.Kill()
	}
	os.Exit(137)
}

// ArmCrashpoint arms one crashpoint from a "point" or "point:N" spec;
// an empty spec disarms. Only one crashpoint can be armed at a time —
// the last call wins, matching the one-scenario-per-process model the
// harness uses.
func ArmCrashpoint(spec string) error {
	if spec == "" {
		armed.Store(nil)
		return nil
	}
	point, after := spec, int64(1)
	if i := strings.LastIndexByte(spec, ':'); i >= 0 {
		n, err := strconv.ParseInt(spec[i+1:], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("chaos: bad crashpoint hit count in %q", spec)
		}
		point, after = spec[:i], n
	}
	if !crashpoints[point] {
		return fmt.Errorf("chaos: unknown crashpoint %q (known: %s)",
			point, strings.Join(Crashpoints(), ", "))
	}
	armed.Store(&armedCrash{point: point, after: after})
	return nil
}

// ArmCrashpointFromEnv arms a crashpoint from FAASNAP_CRASHPOINT if it
// is set; unset leaves the process disarmed.
func ArmCrashpointFromEnv() error {
	return ArmCrashpoint(os.Getenv(EnvCrashpoint))
}

// ObserveCrashpoints arms an observer in place of a crashpoint: until
// restore is called, every MaybeCrash reports its point to fn and
// nothing dies. Tests assert a write path's crashpoint order with it.
func ObserveCrashpoints(fn func(point string)) (restore func()) {
	armed.Store(&armedCrash{observe: fn})
	return func() { armed.Store(nil) }
}

// ArmedCrashpoint reports the armed crashpoint name, "" when disarmed.
func ArmedCrashpoint() string {
	if a := armed.Load(); a != nil {
		return a.point
	}
	return ""
}

// MaybeCrash kills the process if the named crashpoint is armed and
// this is its configured hit. Call it at the exact boundary the name
// documents; on an unarmed process it costs one atomic load.
func MaybeCrash(point string) {
	a := armed.Load()
	if a == nil {
		return
	}
	if a.observe != nil {
		if point != "" { // a write path with no crashpoint at this step
			a.observe(point)
		}
		return
	}
	if a.point != point {
		return
	}
	if a.hits.Add(1) != a.after {
		return
	}
	crashNow(point)
}
