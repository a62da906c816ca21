package chaos

import (
	"strings"
	"testing"
)

// TestCrashpointArmAndFire: an armed observer hears every crashpoint
// passed, each hit, and nothing once restored.
func TestCrashpointArmAndFire(t *testing.T) {
	var fired []string
	restore := ObserveCrashpoints(func(p string) { fired = append(fired, p) })
	MaybeCrash(CrashManifestPostAppend)
	MaybeCrash("") // a write path with no crashpoint at this step
	MaybeCrash(CrashManifestPostAppend)
	restore()
	MaybeCrash(CrashRecordPostReply)
	if want := []string{CrashManifestPostAppend, CrashManifestPostAppend}; strings.Join(fired, ",") != strings.Join(want, ",") {
		t.Fatalf("observed %v, want %v", fired, want)
	}
}

func TestCrashpointListCoversDeclared(t *testing.T) {
	list := Crashpoints()
	if len(list) != len(crashpoints) {
		t.Fatalf("Crashpoints() = %d entries, registry has %d", len(list), len(crashpoints))
	}
	joined := strings.Join(list, ",")
	for _, want := range []string{
		CrashSnapfilePreRename, CrashSnapfilePostRename,
		CrashManifestPreSync, CrashManifestPostAppend,
		CrashRecordPreJournal, CrashRecordPostReply,
		CrashRegisterPostJournal, CrashDeletePostJournal,
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("crashpoint %q missing from list %v", want, list)
		}
	}
}
