// Cross-layer trace propagation: W3C-traceparent-style headers carry
// the trace context over the in-memory pipenet HTTP hops
// (daemon → VMM API socket, daemon → guest agent), and the serving
// side reports the spans it produced back in a response header so the
// daemon can stitch one Zipkin trace out of all three layers.
package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// TraceparentHeader carries the trace context on requests,
	// formatted like W3C trace-context: 00-<trace-id>-<parent-span-id>-01.
	TraceparentHeader = "Traceparent"
	// SpansHeader carries the serving side's spans back on responses,
	// as a JSON array of RemoteSpan.
	SpansHeader = "X-Faasnap-Spans"
)

// SpanContext identifies a position in a trace: the trace and the span
// that new work should parent under.
type SpanContext struct {
	TraceID string
	SpanID  string
}

// Valid reports whether the context names a trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Traceparent renders the context as a traceparent header value.
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent header value. Trace IDs contain
// no dashes; span IDs may (the daemon derives them from trace IDs), so
// the span ID is everything between the trace ID and the flags field.
func ParseTraceparent(s string) (SpanContext, bool) {
	if !strings.HasPrefix(s, "00-") || !strings.HasSuffix(s, "-01") {
		return SpanContext{}, false
	}
	body := s[3 : len(s)-3]
	i := strings.IndexByte(body, '-')
	if i <= 0 || i == len(body)-1 {
		return SpanContext{}, false
	}
	return SpanContext{TraceID: body[:i], SpanID: body[i+1:]}, true
}

// Inject writes the context into request headers.
func Inject(h http.Header, sc SpanContext) {
	if sc.Valid() {
		h.Set(TraceparentHeader, sc.Traceparent())
	}
}

// Extract reads the context from request headers.
func Extract(h http.Header) (SpanContext, bool) {
	return ParseTraceparent(h.Get(TraceparentHeader))
}

// RemoteSpan is one span reported by a lower layer (VMM or guest
// agent) over the spans response header. StartUs is the offset from
// the serving side's receipt of the request; the daemon re-anchors it
// into the invocation's virtual timeline when stitching the trace.
type RemoteSpan struct {
	Name     string            `json:"name"`
	Service  string            `json:"service"`
	SpanID   string            `json:"id"`
	ParentID string            `json:"parentId"`
	StartUs  int64             `json:"startUs"`
	DurUs    int64             `json:"durUs"`
	Tags     map[string]string `json:"tags,omitempty"`
}

// maxFlatTags is the most tags a span may carry for EncodeSpans to
// write it itself; the spans this tree emits carry one or two.
const maxFlatTags = 4

// EncodeSpans serializes spans for the response header as json.Marshal
// does, appending the bytes itself unless a string needs escaping or a
// span carries more than maxFlatTags tags.
func EncodeSpans(spans []RemoteSpan) string {
	if len(spans) == 0 {
		return ""
	}
	if enc, ok := encodeFlatSpans(spans); ok {
		return enc
	}
	raw, err := json.Marshal(spans)
	if err != nil {
		return ""
	}
	return string(raw)
}

func encodeFlatSpans(spans []RemoteSpan) (string, bool) {
	var b strings.Builder
	b.Grow(200 * len(spans))
	flat := true
	str := func(lit, s string) {
		b.WriteString(lit)
		b.WriteString(s)
		b.WriteByte('"')
		for i := 0; i < len(s); i++ {
			flat = flat && plain(s[i])
		}
	}
	var num [20]byte
	sep := `[{"name":"`
	for _, sp := range spans {
		str(sep, sp.Name)
		sep = `,{"name":"`
		str(`,"service":"`, sp.Service)
		str(`,"id":"`, sp.SpanID)
		str(`,"parentId":"`, sp.ParentID)
		b.WriteString(`,"startUs":`)
		b.Write(strconv.AppendInt(num[:0], sp.StartUs, 10))
		b.WriteString(`,"durUs":`)
		b.Write(strconv.AppendInt(num[:0], sp.DurUs, 10))
		keys := make([]string, 0, maxFlatTags)
		for k := range sp.Tags {
			keys = append(keys, k)
		}
		slices.Sort(keys) // as json.Marshal sorts a map's keys
		flat = flat && len(keys) <= maxFlatTags
		lit := `,"tags":{"`
		for _, k := range keys {
			str(lit, k)
			str(`:"`, sp.Tags[k])
			lit = `,"`
		}
		if len(keys) > 0 {
			b.WriteByte('}')
		}
		b.WriteByte('}')
	}
	b.WriteByte(']')
	return b.String(), flat
}

// DecodeSpans parses a spans response header: in one pass into
// substrings of s when EncodeSpans wrote it itself, else by json.Unmarshal.
func DecodeSpans(s string) ([]RemoteSpan, error) {
	if s == "" {
		return nil, nil
	}
	if spans, ok := decodeFlatSpans(s); ok {
		return spans, nil
	}
	var spans []RemoteSpan
	if err := json.Unmarshal([]byte(s), &spans); err != nil {
		return nil, fmt.Errorf("telemetry: bad spans header: %w", err)
	}
	return spans, nil
}

func decodeFlatSpans(s string) (spans []RemoteSpan, ok bool) {
	f := Flat[string]{Src: s}
	spans = make([]RemoteSpan, 0, strings.Count(s, `{"name":`))
	f.Lit("[")
	for more := true; more; more = f.Opt(",") {
		sp := RemoteSpan{Name: f.Str(`{"name":`), Service: f.Str(`,"service":`), SpanID: f.Str(`,"id":`),
			ParentID: f.Str(`,"parentId":`), StartUs: f.Int(`,"startUs":`), DurUs: f.Int(`,"durUs":`)}
		if f.Opt(`,"tags":{`) {
			sp.Tags = make(map[string]string, 2)
			for more := true; more; more = f.Opt(",") {
				k := f.Str("")
				sp.Tags[k] = f.Str(":")
			}
			f.Lit("}")
		}
		f.Lit("}")
		spans = append(spans, sp)
	}
	f.Lit("]")
	return spans, f.Done()
}

// spanCollector accumulates the spans one traced request produces.
type spanCollector struct {
	service string
	trace   SpanContext
	reqSpan string // span ID of the request span, parent of handler-added spans
	newID   func() string
	start   time.Time

	mu    sync.Mutex
	spans []RemoteSpan
}

type collectorCtxKey struct{}

// AddSpan records an extra child span from inside a handler wrapped by
// TraceMiddleware, parented under the request span. start/dur are
// offsets measured by the handler; outside a traced request it is a
// no-op.
func AddSpan(r *http.Request, name string, start, dur time.Duration, tags map[string]string) {
	c, ok := r.Context().Value(collectorCtxKey{}).(*spanCollector)
	if !ok {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, RemoteSpan{
		Name:     name,
		Service:  c.service,
		SpanID:   c.newID(),
		ParentID: c.reqSpan,
		StartUs:  start.Microseconds(),
		DurUs:    max(dur.Microseconds(), 1),
		Tags:     tags,
	})
}

// bufferedResponse delays the response until the handler finishes so
// the spans header (known only afterwards) can still be set. Responses
// on the VMM/agent hops are small JSON bodies, so buffering is cheap.
type bufferedResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }
func (b *bufferedResponse) WriteHeader(code int) {
	if b.status == 0 {
		b.status = code
	}
}
func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.status == 0 {
		b.status = http.StatusOK
	}
	return b.body.Write(p)
}

// TraceMiddleware wraps a server (the VMM API or the guest agent) so
// that requests carrying a traceparent header produce one span per
// request — plus any handler-added child spans — reported back in the
// SpansHeader of the response. Untraced requests pass through
// untouched.
func TraceMiddleware(service string, next http.Handler) http.Handler {
	var seq atomic.Uint64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc, ok := Extract(r.Header)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		col := &spanCollector{
			service: service,
			trace:   sc,
			start:   time.Now(),
		}
		col.newID = func() string {
			return fmt.Sprintf("%s-%s-%04x", sc.TraceID, service, seq.Add(1))
		}
		col.reqSpan = col.newID()

		buf := &bufferedResponse{header: make(http.Header)}
		next.ServeHTTP(buf, r.WithContext(context.WithValue(r.Context(), collectorCtxKey{}, col)))

		reqSpan := RemoteSpan{
			Name:     r.Method + " " + r.URL.Path,
			Service:  service,
			SpanID:   col.reqSpan,
			ParentID: sc.SpanID,
			StartUs:  0,
			DurUs:    max(time.Since(col.start).Microseconds(), 1),
			Tags: map[string]string{
				"service":          service,
				"http.status_code": fmt.Sprintf("%d", buf.status),
			},
		}
		col.mu.Lock()
		spans := append([]RemoteSpan{reqSpan}, col.spans...)
		col.mu.Unlock()

		h := w.Header()
		for k, vs := range buf.header {
			h[k] = vs
		}
		if enc := EncodeSpans(spans); enc != "" {
			h.Set(SpansHeader, enc)
		}
		w.WriteHeader(buf.status)
		_, _ = w.Write(buf.body.Bytes())
	})
}

// HopClient is the calling side of one traced hop (daemon→VMM API,
// daemon→guest agent): requests sent through HTTP are scoped to a
// context, carry a trace context, and collect the spans the serving
// side reports back in SpansHeader for the caller to stitch in.
type HopClient struct {
	HTTP *http.Client

	mu    sync.Mutex
	ctx   context.Context
	sc    SpanContext
	spans []RemoteSpan
}

// NewHopClient returns a hop client sending over base.
func NewHopClient(base http.RoundTripper) *HopClient {
	c := &HopClient{}
	c.HTTP = &http.Client{Transport: hopTransport{c, base}}
	return c
}

type hopTransport struct {
	c    *HopClient
	base http.RoundTripper
}

func (t hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.c.mu.Lock()
	sc := t.c.sc
	t.c.mu.Unlock()
	Inject(req.Header, sc)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if spans, derr := DecodeSpans(resp.Header.Get(SpansHeader)); derr == nil && len(spans) > 0 {
		t.c.mu.Lock()
		t.c.spans = append(t.c.spans, spans...)
		t.c.mu.Unlock()
	}
	return resp, nil
}

// SetTraceContext makes subsequent requests carry the trace context.
func (c *HopClient) SetTraceContext(sc SpanContext) {
	c.mu.Lock()
	c.sc = sc
	c.mu.Unlock()
}

// SetContext scopes subsequent requests to ctx, so a hung peer cannot
// outlive the request (and its deadline) that is waiting on it.
func (c *HopClient) SetContext(ctx context.Context) {
	c.mu.Lock()
	c.ctx = ctx
	c.mu.Unlock()
}

// Context returns the context requests are scoped to.
func (c *HopClient) Context() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx != nil {
		return c.ctx
	}
	return context.Background()
}

// TraceSpans returns the spans the serving side has reported so far.
func (c *HopClient) TraceSpans() []RemoteSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]RemoteSpan(nil), c.spans...)
}
