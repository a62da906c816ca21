package vmm

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/pipenet"
	"faasnap/internal/telemetry"
)

// Client talks HTTP to a machine's API socket, like the FaaSnap daemon
// talks to Firecracker over its Unix socket. It is a traced hop: when a
// trace context is set, every request carries it and the VMM's reply
// spans are collected for the daemon to stitch into the invocation
// trace.
type Client struct {
	*telemetry.HopClient
	chaos *chaos.Injector
}

// Client returns an API client for the machine.
func (m *Machine) Client() *Client {
	m.mu.Lock()
	inj := m.chaos
	m.mu.Unlock()
	return &Client{HopClient: telemetry.NewHopClient(pipenet.Transport(m.lis)), chaos: inj}
}

// APIError is a non-2xx response from the VMM.
type APIError struct {
	Code    int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("vmm: api error %d: %s", e.Code, e.Message)
}

// Retryable reports whether a VMM API error is worth retrying on a
// fresh attempt: transport failures, VMM-side 5xx, and chaos-injected
// faults are transient; 4xx responses and context expiry are not.
func Retryable(err error) bool {
	if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code >= 500
	}
	return true
}

func (c *Client) do(method, path string, body, out interface{}) error {
	ctx := c.Context()
	if d := c.chaos.Eval(chaos.PointVMMAPI, path); d.Fired() {
		switch {
		case d.Is(chaos.KindDelay):
			select {
			case <-time.After(d.Delay):
			case <-ctx.Done():
				return fmt.Errorf("vmm: %s %s: %w", method, path, ctx.Err())
			}
		case d.Is(chaos.KindHang):
			d.Hang(ctx)
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("vmm: %s %s: %w", method, path, err)
			}
			return fmt.Errorf("vmm: %s %s: %w", method, path, d.Err())
		default:
			return fmt.Errorf("vmm: %s %s: %w", method, path, d.Err())
		}
	}
	var rd io.Reader
	if body != nil {
		var buf []byte
		var err error
		if load, ok := body.(LoadBody); ok {
			buf, err = load.encodeLoad()
		} else {
			buf, err = json.Marshal(body)
		}
		if err != nil {
			return fmt.Errorf("vmm: encode request: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, "http://vmm"+path, rd)
	if err != nil {
		return err
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return fmt.Errorf("vmm: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var ae apiError
		_ = json.NewDecoder(resp.Body).Decode(&ae)
		return &APIError{Code: resp.StatusCode, Message: ae.FaultMessage}
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Info fetches instance info.
func (c *Client) Info() (InstanceInfo, error) {
	var info InstanceInfo
	err := c.do(http.MethodGet, "/", nil, &info)
	return info, err
}

// SetMachineConfig configures vCPUs and memory before boot.
func (c *Client) SetMachineConfig(cfg MachineConfig) error {
	return c.do(http.MethodPut, "/machine-config", cfg, nil)
}

// MachineConfig reads the current configuration.
func (c *Client) MachineConfig() (MachineConfig, error) {
	var cfg MachineConfig
	err := c.do(http.MethodGet, "/machine-config", nil, &cfg)
	return cfg, err
}

// Start boots the instance.
func (c *Client) Start() error {
	return c.do(http.MethodPut, "/actions", vmAction{ActionType: "InstanceStart"}, nil)
}

// Pause pauses a running instance.
func (c *Client) Pause() error {
	return c.do(http.MethodPatch, "/vm", vmPatch{State: "Paused"}, nil)
}

// Resume resumes a paused instance.
func (c *Client) Resume() error {
	return c.do(http.MethodPatch, "/vm", vmPatch{State: "Resumed"}, nil)
}

// LoadBody is the body of a snapshot load: a SnapshotLoadRequest,
// encoded on every send, or an EncodedLoad, encoded once and sent as it
// is. Both put the same bytes on the wire.
type LoadBody interface {
	encodeLoad() ([]byte, error)
}

func (r SnapshotLoadRequest) encodeLoad() ([]byte, error) { return json.Marshal(r) }

// EncodedLoad is a SnapshotLoadRequest encoded by EncodeLoad, for a
// caller that sends one request to many VMs. It must not be modified
// once it has been sent.
type EncodedLoad []byte

// EncodeLoad encodes req as LoadSnapshot puts it on the wire.
func EncodeLoad(req SnapshotLoadRequest) (EncodedLoad, error) { return req.encodeLoad() }

func (e EncodedLoad) encodeLoad() ([]byte, error) { return e, nil }

// LoadSnapshot restores a snapshot into a fresh VM, optionally with
// FaaSnap per-region mappings.
func (c *Client) LoadSnapshot(body LoadBody) error {
	return c.do(http.MethodPut, "/snapshot/load", body, nil)
}

// CreateSnapshot snapshots a paused VM.
func (c *Client) CreateSnapshot(req SnapshotCreateRequest) error {
	return c.do(http.MethodPut, "/snapshot/create", req, nil)
}
