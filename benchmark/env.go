package main

import (
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// environment is recorded in every output: the numbers mean little
// without the box they were measured on.
type environment struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	GitCommit     string  `json:"git_commit"`
	Seed          int64   `json:"seed"`
	WindowSeconds float64 `json:"window_seconds"`
	TracedSeconds float64 `json:"traced_seconds"`
	MinSetups     int     `json:"min_setups"`
	MaxSetups     int     `json:"max_setups"`
	StateDirFS    string  `json:"state_dir_fs"`
}

func captureEnv(o options, stateRoot string) environment {
	return environment{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GitCommit:     gitCommit(),
		Seed:          o.seed,
		WindowSeconds: o.seconds,
		TracedSeconds: o.seconds / 2,
		MinSetups:     minSetups,
		MaxSetups:     maxSetups,
		StateDirFS:    fsType(stateRoot),
	}
}

func (e environment) warn(w io.Writer) {
	if e.NProc < invokeClients {
		fmt.Fprintf(w, "benchmark: warning: nproc = %d; the bounds assume %d cores for %d closed-loop clients\n",
			e.NProc, invokeClients, invokeClients)
	}
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git
// repository (the driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

var fsNames = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x2fc12fc1: "zfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
}

// fsType names the filesystem holding path: fsync cost, and so every
// record-sync number, depends on it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}
