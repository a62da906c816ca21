package vmm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"faasnap/internal/chaos"
)

func newMachine(t *testing.T) (*Machine, *Client) {
	t.Helper()
	m := Launch("vm0")
	t.Cleanup(m.Close)
	return m, m.Client()
}

func TestInfoAndInitialState(t *testing.T) {
	m, c := newMachine(t)
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "vm0" || info.State != StateNotStarted {
		t.Fatalf("info = %+v", info)
	}
	if m.State() != StateNotStarted {
		t.Fatalf("state = %v", m.State())
	}
}

func TestBootFlow(t *testing.T) {
	m, c := newMachine(t)
	if err := c.SetMachineConfig(MachineConfig{VcpuCount: 2, MemSizeMib: 2048}); err != nil {
		t.Fatal(err)
	}
	cfg, err := c.MachineConfig()
	if err != nil || cfg.VcpuCount != 2 || cfg.MemSizeMib != 2048 {
		t.Fatalf("config = %+v, %v", cfg, err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateRunning {
		t.Fatalf("state after start = %v", m.State())
	}
}

func TestStartWithoutConfigFails(t *testing.T) {
	_, c := newMachine(t)
	err := c.Start()
	if err == nil {
		t.Fatal("start without config succeeded")
	}
	ae, ok := err.(*APIError)
	if !ok || ae.Code != 400 {
		t.Fatalf("err = %v, want 400 APIError", err)
	}
}

func TestDoubleStartFails(t *testing.T) {
	_, c := newMachine(t)
	_ = c.SetMachineConfig(MachineConfig{VcpuCount: 1, MemSizeMib: 128})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err == nil {
		t.Fatal("double start succeeded")
	}
}

func TestConfigAfterBootRejected(t *testing.T) {
	_, c := newMachine(t)
	_ = c.SetMachineConfig(MachineConfig{VcpuCount: 1, MemSizeMib: 128})
	_ = c.Start()
	if err := c.SetMachineConfig(MachineConfig{VcpuCount: 4, MemSizeMib: 256}); err == nil {
		t.Fatal("reconfig after boot succeeded")
	}
}

func TestPauseResumeLifecycle(t *testing.T) {
	m, c := newMachine(t)
	_ = c.SetMachineConfig(MachineConfig{VcpuCount: 1, MemSizeMib: 128})
	_ = c.Start()
	if err := c.Pause(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StatePaused {
		t.Fatalf("state = %v", m.State())
	}
	if err := c.Pause(); err == nil {
		t.Fatal("double pause succeeded")
	}
	if err := c.Resume(); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateRunning {
		t.Fatalf("state = %v", m.State())
	}
	if err := c.Resume(); err == nil {
		t.Fatal("resume of running VM succeeded")
	}
}

func TestSnapshotCreateRequiresPause(t *testing.T) {
	m, c := newMachine(t)
	_ = c.SetMachineConfig(MachineConfig{VcpuCount: 1, MemSizeMib: 128})
	_ = c.Start()
	req := SnapshotCreateRequest{SnapshotPath: "/s/vm.state", MemFilePath: "/s/vm.mem"}
	if err := c.CreateSnapshot(req); err == nil {
		t.Fatal("snapshot of running VM succeeded")
	}
	_ = c.Pause()
	if err := c.CreateSnapshot(req); err != nil {
		t.Fatal(err)
	}
	snaps := m.Snapshots()
	if len(snaps) != 1 || snaps[0] != req {
		t.Fatalf("snapshots = %+v", snaps)
	}
}

func TestSnapshotLoadWithRegionMaps(t *testing.T) {
	m, c := newMachine(t)
	req := SnapshotLoadRequest{
		SnapshotPath: "/s/fn.state",
		MemBackend:   MemBackend{BackendType: "File", BackendPath: "/s/fn.mem"},
		ResumeVM:     true,
		RegionMaps: []RegionMap{
			{StartPage: 0, Pages: 524288, Backing: "anonymous"},
			{StartPage: 0, Pages: 25600, Backing: "memory_file", Path: "/s/fn.mem"},
			{StartPage: 30000, Pages: 128, Backing: "loading_set", Path: "/s/fn.ls", Offset: 0},
		},
	}
	if err := c.LoadSnapshot(req); err != nil {
		t.Fatal(err)
	}
	if m.State() != StateRunning {
		t.Fatalf("state after resume load = %v", m.State())
	}
}

func TestSnapshotLoadWithoutResumeIsPaused(t *testing.T) {
	m, c := newMachine(t)
	err := c.LoadSnapshot(SnapshotLoadRequest{
		SnapshotPath: "/s/fn.state",
		MemBackend:   MemBackend{BackendType: "File", BackendPath: "/s/fn.mem"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != StatePaused {
		t.Fatalf("state = %v", m.State())
	}
}

func TestSnapshotLoadValidation(t *testing.T) {
	cases := []SnapshotLoadRequest{
		{}, // missing everything
		{SnapshotPath: "/s/x", MemBackend: MemBackend{BackendPath: "/m"}, RegionMaps: []RegionMap{{Pages: 0, Backing: "anonymous"}}},
		{SnapshotPath: "/s/x", MemBackend: MemBackend{BackendPath: "/m"}, RegionMaps: []RegionMap{{Pages: 5, Backing: "bogus"}}},
		{SnapshotPath: "/s/x", MemBackend: MemBackend{BackendPath: "/m"}, RegionMaps: []RegionMap{{Pages: 5, Backing: "loading_set"}}},
	}
	for i, req := range cases {
		_, c := newMachine(t)
		if err := c.LoadSnapshot(req); err == nil {
			t.Errorf("case %d: invalid load succeeded", i)
		}
	}
}

func TestSnapshotLoadIntoStartedVMFails(t *testing.T) {
	_, c := newMachine(t)
	_ = c.SetMachineConfig(MachineConfig{VcpuCount: 1, MemSizeMib: 128})
	_ = c.Start()
	err := c.LoadSnapshot(SnapshotLoadRequest{
		SnapshotPath: "/s/x",
		MemBackend:   MemBackend{BackendPath: "/m"},
	})
	if err == nil {
		t.Fatal("snapshot load into running VM succeeded")
	}
}

func TestClosedMachineRefusesConnections(t *testing.T) {
	m := Launch("dead")
	c := m.Client()
	m.Close()
	_, err := c.Info()
	if err == nil {
		t.Fatal("request to closed machine succeeded")
	}
	if !strings.Contains(err.Error(), "down") && !strings.Contains(err.Error(), "closed") && !strings.Contains(err.Error(), "EOF") {
		t.Logf("error (acceptable): %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	m, _ := newMachine(t)
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			c := m.Client()
			_, err := c.Info()
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// chaosMachine launches a machine with an armed injector. SetChaos must
// run before Client(), which snapshots the injector.
func chaosMachine(t *testing.T, cfg chaos.Config) (*Machine, *Client) {
	t.Helper()
	inj := chaos.New()
	if err := inj.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	m := Launch("vm-chaos")
	m.SetChaos(inj)
	t.Cleanup(m.Close)
	return m, m.Client()
}

func TestChaosErrorOnRoute(t *testing.T) {
	m, c := chaosMachine(t, chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Op: "snapshot/load", Kind: chaos.KindError},
	}})
	err := c.LoadSnapshot(SnapshotLoadRequest{
		SnapshotPath: "/s/x.state",
		MemBackend:   MemBackend{BackendType: "File", BackendPath: "/s/x.mem"},
	})
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("load err = %v, want injected", err)
	}
	if !Retryable(err) {
		t.Fatal("injected fault not retryable")
	}
	// Other routes are untouched.
	if _, err := c.Info(); err != nil {
		t.Fatalf("info under scoped chaos: %v", err)
	}
	_ = m
}

func TestChaosPipenetDropRefusesDial(t *testing.T) {
	m, c := chaosMachine(t, chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointPipenet, Op: "api.sock", Kind: chaos.KindDrop, Count: 1},
	}})
	// The dropped dial surfaces as a transport error, which the retry
	// layer classifies as retryable.
	_, err := c.Info()
	if !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("info over dropped transport err = %v, want injected", err)
	}
	if !Retryable(err) {
		t.Fatal("dropped dial not retryable")
	}
	// The rule is count-limited: the next dial connects.
	if _, err := c.Info(); err != nil {
		t.Fatalf("info after exhausted drop rule: %v", err)
	}
	_ = m
}

func TestChaosPipenetDelayStallsDial(t *testing.T) {
	_, c := chaosMachine(t, chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointPipenet, Kind: chaos.KindDelay, DelayMs: 10},
	}})
	start := time.Now()
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed dial completed in %v", d)
	}
}

func TestChaosDelayStallsRequest(t *testing.T) {
	_, c := chaosMachine(t, chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Op: "/", Kind: chaos.KindDelay, DelayMs: 10},
	}})
	start := time.Now()
	if _, err := c.Info(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("delayed request completed in %v", d)
	}
}

func TestChaosHangRespectsDeadline(t *testing.T) {
	_, c := chaosMachine(t, chaos.Config{Enabled: true, Rules: []chaos.Rule{
		{Point: chaos.PointVMMAPI, Kind: chaos.KindHang},
	}})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	c.SetContext(ctx)
	start := time.Now()
	_, err := c.Info()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("hang outlived its deadline by far")
	}
	if Retryable(err) {
		t.Fatal("deadline expiry must not be retryable")
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, false},
		{&APIError{Code: 400, Message: "bad request"}, false},
		{&APIError{Code: 500, Message: "internal"}, true},
		{errors.New("write pipe: broken"), true},
		{chaos.ErrInjected, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestGenerationIDChangesOnSnapshotLoad(t *testing.T) {
	m, c := newMachine(t)
	info, _ := c.Info()
	if info.VMGenerationID != "" {
		t.Fatalf("fresh VM has generation id %q", info.VMGenerationID)
	}
	err := c.LoadSnapshot(SnapshotLoadRequest{
		SnapshotPath: "/s/x.state",
		MemBackend:   MemBackend{BackendType: "File", BackendPath: "/s/x.mem"},
		ResumeVM:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, _ = c.Info()
	if info.VMGenerationID == "" {
		t.Fatal("restored VM has no generation id (guests cannot reseed PRNGs, §7.4)")
	}
	_ = m
}
