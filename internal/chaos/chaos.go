// Package chaos is a deterministic, seedable fault-injection registry
// for the FaaSnap stack. Production FaaS hosts live with slow disks,
// truncated snapshot files, crashed VMMs, and hung guests; this package
// gives every layer a named injection point and lets tests (and the
// daemon's PUT /chaos endpoint) turn specific failure modes on with a
// fixed seed, so an entire failure scenario replays bit-for-bit.
//
// Injection points are consulted by the layer that owns them:
//
//	vmm.api        the VMM API client, per route (error / delay / hang)
//	pipenet        the in-memory transport (drop / delay on dial)
//	blockdev.read  block-device reads (I/O error, slow-disk multiplier)
//	snapfile.load  snapfile deserialization (corruption / truncation)
//	guestagent     the in-guest server (crash / hang / error)
//
// A layer calls Eval(point, op) on its configured *Injector; a zero
// Decision means "no fault". Every injected fault increments the
// faasnap_chaos_injected_total{point,kind} telemetry counter and the
// matching rule's fired count, which GET /chaos reports.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"faasnap/internal/telemetry"
)

// Injection point names. Layers own their point; ops within a point are
// layer-specific (VMM API route, blockdev request class, ...).
const (
	PointVMMAPI   = "vmm.api"
	PointPipenet  = "pipenet"
	PointBlockdev = "blockdev.read"
	PointSnapfile = "snapfile.load"
	PointAgent    = "guestagent"
)

// Kind is the fault flavour a rule injects.
type Kind string

const (
	// KindError fails the operation with ErrInjected.
	KindError Kind = "error"
	// KindDelay adds latency before the operation proceeds.
	KindDelay Kind = "delay"
	// KindHang blocks the operation until its deadline (or a cap) fires.
	KindHang Kind = "hang"
	// KindSlow multiplies an I/O operation's service time by Factor.
	KindSlow Kind = "slow"
	// KindCorrupt flips a byte in a snapfile stream.
	KindCorrupt Kind = "corrupt"
	// KindTruncate cuts the tail off a snapfile stream.
	KindTruncate Kind = "truncate"
	// KindCrash kills the serving process (guest agent) mid-request.
	KindCrash Kind = "crash"
	// KindDrop refuses a transport connection.
	KindDrop Kind = "drop"
)

var validKinds = map[Kind]bool{
	KindError: true, KindDelay: true, KindHang: true, KindSlow: true,
	KindCorrupt: true, KindTruncate: true, KindCrash: true, KindDrop: true,
}

var validPoints = map[string]bool{
	PointVMMAPI: true, PointPipenet: true, PointBlockdev: true,
	PointSnapfile: true, PointAgent: true,
}

// ErrInjected is the sentinel all chaos-injected errors wrap; layers
// and tests can errors.Is against it to tell injected faults from real
// ones.
var ErrInjected = errors.New("chaos: injected fault")

// Rule arms one fault: at Point, for operations containing Op (empty
// matches every op), with probability Prob (0 means always), at most
// Count times (0 means unlimited).
type Rule struct {
	Point string  `json:"point"`
	Op    string  `json:"op,omitempty"`
	Kind  Kind    `json:"kind"`
	Prob  float64 `json:"prob,omitempty"`
	Count int64   `json:"count,omitempty"`
	// DelayMs parameterizes delay and caps hang (milliseconds).
	DelayMs int64 `json:"delay_ms,omitempty"`
	// Factor parameterizes slow (service-time multiplier, ≥ 1).
	Factor float64 `json:"factor,omitempty"`
}

func (r Rule) validate() error {
	if !validPoints[r.Point] {
		return fmt.Errorf("chaos: unknown point %q", r.Point)
	}
	if !validKinds[r.Kind] {
		return fmt.Errorf("chaos: unknown kind %q", r.Kind)
	}
	if r.Prob < 0 || r.Prob > 1 {
		return fmt.Errorf("chaos: prob %v outside [0,1]", r.Prob)
	}
	if r.Count < 0 {
		return fmt.Errorf("chaos: negative count %d", r.Count)
	}
	if r.DelayMs < 0 {
		return fmt.Errorf("chaos: negative delay_ms %d", r.DelayMs)
	}
	if r.Kind == KindSlow && r.Factor < 1 {
		return fmt.Errorf("chaos: slow rule needs factor ≥ 1, got %v", r.Factor)
	}
	return nil
}

// Config is the full injector state set at daemon start or live via
// PUT /chaos. Configuring resets the RNG to Seed and every fired count
// to zero, so the same config replays the same fault sequence.
type Config struct {
	Enabled bool   `json:"enabled"`
	Seed    int64  `json:"seed,omitempty"`
	Rules   []Rule `json:"rules,omitempty"`
}

// Validate checks every rule.
func (c Config) Validate() error {
	for i, r := range c.Rules {
		if err := r.validate(); err != nil {
			return fmt.Errorf("rule %d: %w", i, err)
		}
	}
	return nil
}

// RuleStatus is one rule plus how often it has fired.
type RuleStatus struct {
	Rule
	Fired int64 `json:"fired"`
}

// Status is what GET /chaos reports.
type Status struct {
	Enabled  bool         `json:"enabled"`
	Seed     int64        `json:"seed"`
	Rules    []RuleStatus `json:"rules"`
	Injected int64        `json:"injected_total"`
}

// Decision is the outcome of one Eval: a zero Decision means no fault.
type Decision struct {
	Kind   Kind
	Delay  time.Duration
	Factor float64
	point  string
	op     string
}

// Fired reports whether any fault was injected.
func (d Decision) Fired() bool { return d.Kind != "" }

// Is reports whether the injected fault is of kind k.
func (d Decision) Is(k Kind) bool { return d.Kind == k }

// Err returns an error wrapping ErrInjected describing the fault, or
// nil for a no-fault decision.
func (d Decision) Err() error {
	if !d.Fired() {
		return nil
	}
	return fmt.Errorf("%w: %s at %s/%s", ErrInjected, d.Kind, d.point, d.op)
}

// Hang blocks for an injected hang: until ctx is done, or the rule's
// delay_ms cap (30 s without one, so an undeadlined test cannot wedge).
func (d Decision) Hang(ctx context.Context) {
	limit := d.Delay
	if limit <= 0 {
		limit = 30 * time.Second
	}
	select {
	case <-time.After(limit):
	case <-ctx.Done():
	}
}

type ruleState struct {
	Rule
	fired atomic.Int64
}

// Injector evaluates chaos rules at injection points. The zero value
// from New is disabled and injects nothing; Eval on a disabled injector
// is a single atomic load, so always-wired injection points cost
// nothing in production. A nil *Injector is likewise safe.
type Injector struct {
	enabled atomic.Bool

	mu    sync.Mutex
	seed  int64
	rng   *rand.Rand
	rules []*ruleState

	reg      atomic.Pointer[telemetry.Registry]
	onFire   atomic.Pointer[func(point, op string, kind Kind)]
	injected atomic.Int64
}

// New returns a disabled injector.
func New() *Injector { return &Injector{} }

// SetTelemetry routes injected-fault counts into reg as
// faasnap_chaos_injected_total{point,kind}.
func (i *Injector) SetTelemetry(reg *telemetry.Registry) {
	if i == nil || reg == nil {
		return
	}
	i.reg.Store(reg)
}

// SetOnFire installs a callback invoked every time a rule fires, with
// the injection point, the operation, and the fault kind. Like
// SetTelemetry it survives Configure. The callback runs under the
// injector's lock and must not call back into the injector.
func (i *Injector) SetOnFire(fn func(point, op string, kind Kind)) {
	if i == nil || fn == nil {
		return
	}
	i.onFire.Store(&fn)
}

// Configure replaces the rule set, reseeds the RNG, and zeroes fired
// counts. An invalid config leaves the injector unchanged.
func (i *Injector) Configure(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	i.mu.Lock()
	i.seed = cfg.Seed
	i.rng = rand.New(rand.NewSource(cfg.Seed))
	i.rules = make([]*ruleState, len(cfg.Rules))
	for j, r := range cfg.Rules {
		i.rules[j] = &ruleState{Rule: r}
	}
	i.mu.Unlock()
	i.enabled.Store(cfg.Enabled)
	return nil
}

// Enabled reports whether any rules are armed.
func (i *Injector) Enabled() bool { return i != nil && i.enabled.Load() }

// Status snapshots the config and per-rule fire counts.
func (i *Injector) Status() Status {
	i.mu.Lock()
	defer i.mu.Unlock()
	st := Status{
		Enabled:  i.enabled.Load(),
		Seed:     i.seed,
		Rules:    make([]RuleStatus, len(i.rules)),
		Injected: i.injected.Load(),
	}
	for j, rs := range i.rules {
		st.Rules[j] = RuleStatus{Rule: rs.Rule, Fired: rs.fired.Load()}
	}
	return st
}

// Injected returns the total faults injected over the injector's
// lifetime. It is monotonic like the telemetry counter; per-rule fired
// counts, by contrast, reset on Configure.
func (i *Injector) Injected() int64 {
	if i == nil {
		return 0
	}
	return i.injected.Load()
}

// DialFault adapts the injector into a transport dial hook (point
// "pipenet", op = listener name): drop refuses the connection with an
// ErrInjected-wrapping error, delay stalls the dial. The returned
// function satisfies pipenet.DialFault without chaos depending on
// pipenet. A nil injector yields a nil hook, which uninstalls any
// previous one.
func (i *Injector) DialFault(op string) func() (time.Duration, error) {
	if i == nil {
		return nil
	}
	return func() (time.Duration, error) {
		d := i.Eval(PointPipenet, op)
		switch {
		case d.Is(KindDrop):
			return 0, d.Err()
		case d.Is(KindDelay):
			return d.Delay, nil
		}
		return 0, nil
	}
}

// matches reports whether the rule applies to op (substring match;
// empty rule op matches everything).
func (r *ruleState) matches(point, op string) bool {
	if r.Point != point {
		return false
	}
	return strings.Contains(op, r.Op) // an empty rule op is in every op
}

// Eval consults the rules for one operation at an injection point. The
// first armed rule that matches and wins its probability draw fires;
// rules are evaluated in configuration order and probability draws
// come from the seeded RNG, so a fixed seed yields a fixed fault
// sequence. A nil or disabled injector never fires.
func (i *Injector) Eval(point, op string) Decision {
	if i == nil || !i.enabled.Load() {
		return Decision{}
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, rs := range i.rules {
		if !rs.matches(point, op) {
			continue
		}
		if rs.Count > 0 && rs.fired.Load() >= rs.Count {
			continue
		}
		if rs.Prob > 0 && rs.Prob < 1 && i.rng.Float64() >= rs.Prob {
			continue
		}
		rs.fired.Add(1)
		i.injected.Add(1)
		if reg := i.reg.Load(); reg != nil {
			reg.Counter("faasnap_chaos_injected_total",
				"Faults injected by the chaos layer, by point and kind.",
				telemetry.L("point", point, "kind", string(rs.Kind))).Inc()
		}
		if fn := i.onFire.Load(); fn != nil {
			(*fn)(point, op, rs.Kind)
		}
		return Decision{
			Kind:   rs.Kind,
			Delay:  time.Duration(rs.DelayMs) * time.Millisecond,
			Factor: rs.Factor,
			point:  point,
			op:     op,
		}
	}
	return Decision{}
}
