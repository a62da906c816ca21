// Package testconfig is the data side of the artifact-appendix test
// driver: the paper's evaluation is driven by `test.py
// test-2inputs.json` / `test-6inputs.json` configs (App. A.4); this
// package parses and validates the equivalent JSON configuration and
// defines the structured results. experiments.Matrix runs the matrix.
package testconfig

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"faasnap/internal/blockdev"
	"faasnap/internal/core"
	"faasnap/internal/workload"
)

// Config is a test-matrix description, the analogue of the artifact's
// test-*.json files.
type Config struct {
	// Name labels the run (e.g. "test-2inputs").
	Name string `json:"name"`
	// Functions to evaluate; empty means the full catalog.
	Functions []string `json:"functions,omitempty"`
	// Modes to compare; empty means firecracker, reap, faasnap, cached.
	Modes []string `json:"modes,omitempty"`
	// RecordInput is the record-phase input ("A" or "B").
	RecordInput string `json:"record_input"`
	// TestInputs are the test-phase inputs, by the names
	// workload.Spec.ResolveInput takes (A, B, ratio:<x>).
	TestInputs []string `json:"test_inputs"`
	// Trials per (function, mode, input) cell.
	Trials int `json:"trials"`
	// Parallel > 1 turns each cell into a burst.
	Parallel int `json:"parallel,omitempty"`
	// SameSnapshot controls burst snapshot sharing (default true).
	SameSnapshot *bool `json:"same_snapshot,omitempty"`
	// Disk selects the device profile: "nvme" (default) or "ebs".
	Disk string `json:"disk,omitempty"`
	// DropCaches mirrors the artifact's cache dropping between tests;
	// it is implicit in this platform (every run starts cold) and only
	// validated for compatibility.
	DropCaches bool `json:"drop_caches,omitempty"`
}

// Validate checks the configuration and applies defaults.
func (c *Config) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("testconfig: config needs a name")
	}
	if len(c.Functions) == 0 {
		c.Functions = workload.Names()
	}
	if len(c.TestInputs) == 0 {
		return fmt.Errorf("testconfig: test_inputs must not be empty")
	}
	for _, name := range c.Functions {
		fn, err := workload.ByName(name)
		if err != nil {
			return fmt.Errorf("testconfig: %w", err)
		}
		for _, in := range c.TestInputs {
			if _, err := fn.ResolveInput(in); err != nil {
				return fmt.Errorf("testconfig: function %s: %w", name, err)
			}
		}
	}
	if len(c.Modes) == 0 {
		c.Modes = []string{"firecracker", "reap", "faasnap", "cached"}
	}
	for _, m := range c.Modes {
		if _, err := core.ParseMode(m); err != nil {
			return fmt.Errorf("testconfig: %w", err)
		}
	}
	if c.RecordInput == "" {
		c.RecordInput = "A"
	}
	if c.RecordInput != "A" && c.RecordInput != "B" {
		return fmt.Errorf("testconfig: record_input must be A or B, got %q", c.RecordInput)
	}
	if c.Trials <= 0 {
		c.Trials = 1
	}
	if c.Trials > 20 {
		return fmt.Errorf("testconfig: trials %d too large", c.Trials)
	}
	if c.Parallel < 0 || c.Parallel > 256 {
		return fmt.Errorf("testconfig: parallel %d outside [0, 256]", c.Parallel)
	}
	switch c.Disk {
	case "", "nvme", "ebs":
	default:
		return fmt.Errorf("testconfig: unknown disk %q", c.Disk)
	}
	return nil
}

// Parse reads a config from JSON, rejecting unknown fields.
func Parse(raw []byte) (*Config, error) {
	var c Config
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("testconfig: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadFile parses a config file.
func LoadFile(path string) (*Config, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}

// Row is one result cell.
type Row struct {
	Function string  `json:"function"`
	Mode     string  `json:"mode"`
	Input    string  `json:"input"`
	Parallel int     `json:"parallel"`
	MeanMs   float64 `json:"mean_ms"`
	StdMs    float64 `json:"std_ms"`
	SetupMs  float64 `json:"setup_ms"`
	InvokeMs float64 `json:"invoke_ms"`
	Majors   int64   `json:"major_faults"`
	Faults   int64   `json:"faults"`
}

// Results is a completed run.
type Results struct {
	Name    string        `json:"name"`
	Started time.Time     `json:"started"`
	Elapsed time.Duration `json:"elapsed"`
	Rows    []Row         `json:"rows"`
}

// HostConfig builds the simulated host the config describes.
func (c *Config) HostConfig() core.HostConfig {
	host := core.DefaultHostConfig()
	if c.Disk == "ebs" {
		host.Disk = blockdev.EBSRemote()
	}
	return host
}

// Table renders results as an aligned text table.
func (r *Results) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s (%d rows, %v) ==\n", r.Name, len(r.Rows), r.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-14s %-18s %-8s %10s %10s %8s\n", "function", "mode", "input", "mean ms", "std ms", "majors")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-14s %-18s %-8s %10.1f %10.1f %8d\n",
			row.Function, row.Mode, row.Input, row.MeanMs, row.StdMs, row.Majors)
	}
	return b.String()
}
