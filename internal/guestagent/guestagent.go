// Package guestagent implements the in-guest invocation server: the
// paper runs "a Flask-based server... in the guest [that] waits for
// HTTP invocation requests and invokes function code" (§5), plus the
// procfs interface through which the daemon toggles freed-page
// sanitizing between the record and test phases.
//
// The agent serves HTTP over the guest's virtual network device
// (an in-memory connection here). Function execution itself is
// delegated to an Executor callback, since the data plane runs in the
// simulator.
package guestagent

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"faasnap/internal/chaos"
	"faasnap/internal/pipenet"
	"faasnap/internal/telemetry"
)

// InvokeRequest asks the agent to run the installed function.
type InvokeRequest struct {
	Input string `json:"input"`
}

// InvokeReply carries the function's result.
type InvokeReply struct {
	Output     json.RawMessage `json:"output,omitempty"`
	DurationMs float64         `json:"duration_ms"`
}

// Executor runs the installed function for one request.
type Executor func(req InvokeRequest) (InvokeReply, error)

// Agent is the in-guest server for one VM.
type Agent struct {
	name     string
	exec     Executor
	sanitize atomic.Bool
	chaos    atomic.Pointer[chaos.Injector]

	lis       *pipenet.Listener
	transport http.RoundTripper // every Client's, dialing lis
	server    *http.Server
	done      chan struct{}

	invocations atomic.Int64
	telCounter  *telemetry.Counter
}

// Start launches the agent for the named function VM.
func Start(name string, exec Executor) *Agent {
	a := &Agent{
		name: name,
		exec: exec,
		lis:  pipenet.NewListener(name + "-guest:80"),
		done: make(chan struct{}),
	}
	a.transport = pipenet.Transport(a.lis)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", a.handleHealth)
	mux.HandleFunc("POST /invoke", a.handleInvoke)
	mux.HandleFunc("GET "+sanitizePath, a.handleGetSanitize)
	mux.HandleFunc("PUT "+sanitizePath, a.handlePutSanitize)
	a.server = &http.Server{Handler: telemetry.TraceMiddleware("guest-agent", mux)}
	go func() {
		defer close(a.done)
		_ = a.server.Serve(a.lis)
	}()
	return a
}

// Close stops the agent.
func (a *Agent) Close() {
	_ = a.server.Close()
	<-a.done
}

// SetTelemetry registers this agent's invocation counter in the
// registry.
func (a *Agent) SetTelemetry(reg *telemetry.Registry) {
	a.telCounter = reg.Counter("faasnap_guest_invocations_total",
		"Invocations served by the in-guest agent.",
		telemetry.L("function", a.name))
}

// SetChaos arms the agent with a chaos injector, consulted on every
// invoke request (point "guestagent", op "invoke"): error fails the
// request, hang stalls it until the caller's deadline, crash kills the
// whole server mid-request — the guest process dying under the daemon.
// Dials of the agent's virtual network device additionally consult the
// transport point (point "pipenet", op = listener name, kinds drop and
// delay). A nil injector disables both.
func (a *Agent) SetChaos(inj *chaos.Injector) {
	a.chaos.Store(inj)
	a.lis.SetDialFault(inj.DialFault(a.lis.Addr().String()))
}

// Sanitizing reports the guest kernel's freed-page sanitizing state.
func (a *Agent) Sanitizing() bool { return a.sanitize.Load() }

// Invocations reports how many invocations the agent served.
func (a *Agent) Invocations() int64 { return a.invocations.Load() }

func (a *Agent) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"function":    a.name,
		"ok":          true,
		"invocations": a.invocations.Load(),
	})
}

func (a *Agent) handleInvoke(w http.ResponseWriter, r *http.Request) {
	if d := a.chaos.Load().Eval(chaos.PointAgent, "invoke"); d.Fired() {
		switch {
		case d.Is(chaos.KindCrash):
			// The guest process dies mid-request: stop the server and
			// abort this connection without a response, so the daemon
			// sees a transport error, not a clean HTTP failure.
			go a.server.Close()
			panic(http.ErrAbortHandler)
		case d.Is(chaos.KindHang):
			d.Hang(r.Context())
			writeErr(w, http.StatusInternalServerError, "%v", d.Err())
			return
		default:
			writeErr(w, http.StatusInternalServerError, "%v", d.Err())
			return
		}
	}
	var req InvokeRequest
	if r.Body != nil {
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, http.StatusBadRequest, "bad invoke request: %v", err)
			return
		}
	}
	if a.exec == nil {
		writeErr(w, http.StatusServiceUnavailable, "no function installed")
		return
	}
	execStart := time.Now()
	reply, err := a.exec(req)
	telemetry.AddSpan(r, "guest-execute", 0, time.Since(execStart), map[string]string{
		"function": a.name,
	})
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "%v", err)
		return
	}
	a.invocations.Add(1)
	if a.telCounter != nil {
		a.telCounter.Inc()
	}
	writeJSON(w, http.StatusOK, reply)
}

type sanitizeBody struct {
	Enabled bool `json:"enabled"`
}

func (a *Agent) handleGetSanitize(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, sanitizeBody{Enabled: a.sanitize.Load()})
}

func (a *Agent) handlePutSanitize(w http.ResponseWriter, r *http.Request) {
	var body sanitizeBody
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, "bad sanitize request: %v", err)
		return
	}
	a.sanitize.Store(body.Enabled)
	w.WriteHeader(http.StatusNoContent)
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Client is the daemon-side handle to a guest agent: a traced hop
// over the virtual network.
type Client struct {
	*telemetry.HopClient
}

// Client returns an HTTP client connected to the agent over the
// virtual network.
func (a *Agent) Client() *Client {
	return &Client{telemetry.NewHopClient(a.transport)}
}

// do sends one request to the agent — op names it in errors — with body
// as JSON when non-nil, decoding a 2xx answer into out when non-nil.
func (c *Client) do(op, method, path string, body, out interface{}) error {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(c.Context(), method, "http://guest"+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("guestagent: %s failed (%d): %s", op, resp.StatusCode, e["error"])
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// Health checks agent liveness.
func (c *Client) Health() error {
	return c.do("health", http.MethodGet, "/healthz", nil, nil)
}

// Invoke runs the installed function.
func (c *Client) Invoke(req InvokeRequest) (InvokeReply, error) {
	var reply InvokeReply
	err := c.do("invoke", http.MethodPost, "/invoke", req, &reply)
	return reply, err
}

const sanitizePath = "/proc/sys/vm/sanitize_freed_pages"

// SetSanitize flips the guest kernel's freed-page sanitizing knob via
// the agent's procfs endpoint.
func (c *Client) SetSanitize(enabled bool) error {
	return c.do("sanitize", http.MethodPut, sanitizePath, sanitizeBody{Enabled: enabled}, nil)
}

// Sanitizing reads the sanitize knob.
func (c *Client) Sanitizing() (bool, error) {
	var body sanitizeBody
	err := c.do("sanitize", http.MethodGet, sanitizePath, nil, &body)
	return body.Enabled, err
}
