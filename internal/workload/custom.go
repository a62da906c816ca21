package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// InputConfig is the JSON form of an input definition.
type InputConfig struct {
	Bytes     int64 `json:"bytes"`
	DataPages int64 `json:"data_pages"`
	// Seed selects input content; omit (0) to derive one from the
	// function name so A and B differ.
	Seed int64 `json:"seed,omitempty"`
}

// SpecConfig is the JSON form of a function model, letting users
// define functions beyond the paper's Table 2 catalog. Durations are
// given in convenient fixed units.
type SpecConfig struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	BootMB      int64       `json:"boot_mb"`      // boot+runtime image size
	StablePages int64       `json:"stable_pages"` // runtime working set
	ChunkMean   int         `json:"chunk_mean"`   // stable-region locality
	SeqStable   bool        `json:"seq_stable"`   // address-ordered stable access
	RetainFrac  float64     `json:"retain_frac"`  // input pages retained into the snapshot
	BaseMs      int64       `json:"base_ms"`      // input-independent compute
	PerKBUs     int64       `json:"per_kb_us"`    // compute per input KB
	PerPageUs   int64       `json:"per_page_us"`  // compute per data page
	InitMs      int64       `json:"init_ms"`      // cold-start runtime initialization
	InputA      InputConfig `json:"input_a"`
	InputB      InputConfig `json:"input_b"`
}

// Validate checks the configuration for consistency with the guest
// layout.
func (c *SpecConfig) Validate() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("workload: custom spec needs a name")
	case c.BootMB <= 0 || c.BootMB > 1024:
		return fmt.Errorf("workload: boot_mb %d outside (0, 1024]", c.BootMB)
	case c.StablePages <= 0:
		return fmt.Errorf("workload: stable_pages must be positive")
	case c.ChunkMean < 0:
		return fmt.Errorf("workload: chunk_mean must be non-negative")
	case c.RetainFrac < 0 || c.RetainFrac > 1:
		return fmt.Errorf("workload: retain_frac %v outside [0, 1]", c.RetainFrac)
	case c.BaseMs < 0 || c.PerKBUs < 0 || c.PerPageUs < 0 || c.InitMs < 0:
		return fmt.Errorf("workload: negative compute parameter")
	case c.InputA.Bytes < 0 || c.InputA.DataPages < 0 || c.InputB.Bytes < 0 || c.InputB.DataPages < 0:
		return fmt.Errorf("workload: negative input size")
	}
	// Everything must fit: data pages within the heap (the stable
	// region's actual span is checked against the generated layout in
	// Spec, since gap structure depends on the chunk size).
	const heapStart = GuestPages / 2
	maxData := c.InputA.DataPages
	if c.InputB.DataPages > maxData {
		maxData = c.InputB.DataPages
	}
	if maxData*6 >= heapStart { // ratio sweeps go up to 4x, leave slack
		return fmt.Errorf("workload: data pages %d too large for the heap", maxData)
	}
	return nil
}

// Spec materializes the configuration into a function model. The
// stable-region layout is generated once to verify it fits below the
// heap for this exact configuration.
func (c *SpecConfig) Spec() (s *Spec, err error) {
	if verr := c.Validate(); verr != nil {
		return nil, verr
	}
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("workload: invalid custom spec: %v", r)
		}
	}()
	chunk := c.ChunkMean
	if chunk == 0 {
		chunk = 4
	}
	s = &Spec{
		Name:         c.Name,
		Description:  c.Description,
		BootPages:    c.BootMB * PagesPerMB,
		StablePages:  c.StablePages,
		ChunkMean:    chunk,
		SeqStable:    c.SeqStable,
		RetainFrac:   c.RetainFrac,
		Base:         time.Duration(c.BaseMs) * time.Millisecond,
		ComputePerKB: time.Duration(c.PerKBUs) * time.Microsecond,
		PerPage:      time.Duration(c.PerPageUs) * time.Microsecond,
		InitCompute:  time.Duration(c.InitMs) * time.Millisecond,
	}
	seedA := c.InputA.Seed
	if seedA == 0 {
		seedA = hashSeed(c.Name, "input", "A")
	}
	seedB := c.InputB.Seed
	if seedB == 0 {
		seedB = hashSeed(c.Name, "input", "B")
	}
	s.A = Input{Name: "A", Bytes: c.InputA.Bytes, DataPages: c.InputA.DataPages, Seed: seedA}
	s.B = Input{Name: "B", Bytes: c.InputB.Bytes, DataPages: c.InputB.DataPages, Seed: seedB}
	s.WSA = float64(s.StablePages+s.A.DataPages) / PagesPerMB
	s.WSB = float64(s.StablePages+s.B.DataPages) / PagesPerMB
	cc := *c
	s.Origin = &cc
	s.layout() // panics (recovered above) if the layout overflows
	return s, nil
}

// ParseSpec builds a function model from JSON.
func ParseSpec(raw []byte) (*Spec, error) {
	var cfg SpecConfig
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("workload: bad spec json: %w", err)
	}
	return cfg.Spec()
}
