package telemetry

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"testing"
)

// The spans headers a traced restore's VMM and a traced invoke's guest
// agent send back, as captured from a daemon.
const (
	restoreSpans = `[{"name":"PUT /snapshot/load","service":"vmm","id":"0000000000000001-vmm-0001",` +
		`"parentId":"0000000000000001-0001","startUs":0,"durUs":13,` +
		`"tags":{"http.status_code":"204","service":"vmm"}}]`
	invokeSpans = `[{"name":"POST /invoke","service":"guest-agent","id":"0000000000000001-guest-agent-0001",` +
		`"parentId":"0000000000000001-vmm-0001","startUs":0,"durUs":55,` +
		`"tags":{"http.status_code":"200","service":"guest-agent"}},` +
		`{"name":"guest-execute","service":"guest-agent","id":"0000000000000001-guest-agent-0002",` +
		`"parentId":"0000000000000001-guest-agent-0001","startUs":0,"durUs":1,"tags":{"function":"hello-world"}}]`
)

// spansCases are odd headers the flat pass must hand to encoding/json,
// or take with encoding/json's answer.
var spansCases = []string{
	`[{"name":"a\"b","service":"vmm","id":"x","parentId":"y","startUs":0,"durUs":1}]`,
	`[{"name":"é","service":"vmm","id":"x","parentId":"y","startUs":0,"durUs":1}]`,
	`[{"name":"<&>","service":"vmm","id":"x","parentId":"y","startUs":0,"durUs":1}]`,
	`[{"service":"vmm","name":"a","id":"x","parentId":"y","startUs":0,"durUs":1}]`,
	`[{"name":"a","name":"b","service":"vmm","id":"x","parentId":"y","startUs":0,"durUs":1}]`,
	`[{"name":"a","service":"vmm","id":"x","parentId":"y","startUs":0,"durUs":1,"tags":{"k":"1","k":"2"}}]`,
	`[{"name":"a","service":"vmm","id":"x","parentId":"y","startUs":1.5,"durUs":1e3}]`,
	`[{"name":"a","service":"vmm","id":"x","parentId":"y","startUs":9223372036854775807,"durUs":-9223372036854775808}]`,
	`[{"name":"a","service":"vmm","id":"x","parentId":"y","startUs":9223372036854775808,"durUs":-0}]`,
	`[{"name":"a","service":"vmm","id":"x","parentId":"y","startUs":01,"durUs":1}]`,
	`[{"name":"a","service":"vmm","id":"x","parentId":"y","startUs":0,"durUs":1,"tags":{}}]`,
	`[{"name":"a","service":"vmm","id":"x","parentId":"y","startUs":0,"durUs":1,"tags":null}]`,
	restoreSpans + "]", `[]`, `]`, `null`, ` [] `, `[{}]`, `not json`,
}

// FuzzSpans checks the spans codec against encoding/json. DecodeSpans
// and json.Unmarshal accept and reject the same headers and decode the
// same spans; EncodeSpans writes json.Marshal's bytes for every span
// slice the fuzzer builds, tags over the flat limit and strings that
// need escaping included. The captured headers must take the flat
// pass both ways.
func FuzzSpans(f *testing.F) {
	for _, h := range []string{restoreSpans, invokeSpans} {
		spans, ok := decodeFlatSpans(h)
		if enc, flat := encodeFlatSpans(spans); !ok || !flat || enc != h {
			f.Fatalf("the flat codec does not round-trip %s", h)
		}
		f.Add(h, "guest-execute", "function", "hello-world", int64(0), int64(1), uint8(1))
	}
	for i, h := range spansCases {
		f.Add(h, h, "k", "v", int64(i)-1, int64(1)<<(7*i), uint8(i))
	}
	// Each kind of string json.Marshal escapes, alone in its slice:
	// HTML, a control character, a line separator, invalid UTF-8.
	for _, name := range []string{"a<b", "a>b", "a&b", "a\tb", "a\u2028b", "a\xffb", `a"b`, `a\b`} {
		f.Add("", name, "k", "v", int64(-1), int64(1)<<62, uint8(2))
	}
	f.Fuzz(func(t *testing.T, header, name, key, value string, start, dur int64, ntags uint8) {
		checkDecode(t, header)
		var tags map[string]string
		for i := 0; i < int(ntags%(maxFlatTags+3)); i++ {
			if tags == nil {
				tags = map[string]string{}
			}
			tags[key+strconv.Itoa(i)] = value
		}
		spans := []RemoteSpan{
			{Name: name, Service: "vmm", SpanID: key, ParentID: value, StartUs: start, DurUs: dur, Tags: tags},
			{Name: value, Service: name, SpanID: "id", ParentID: key, StartUs: dur, DurUs: start},
		}
		raw, err := json.Marshal(spans)
		if err != nil {
			t.Fatal(err)
		}
		enc := EncodeSpans(spans)
		if enc != string(raw) {
			t.Fatalf("EncodeSpans(%+v)\n= %s\nwant %s", spans, enc, raw)
		}
		checkDecode(t, enc)
	})
}

// checkDecode fails t unless DecodeSpans and json.Unmarshal agree on h.
func checkDecode(t *testing.T, h string) {
	t.Helper()
	got, err := DecodeSpans(h)
	var want []RemoteSpan
	var wantErr error
	if h != "" {
		wantErr = json.Unmarshal([]byte(h), &want)
	}
	if (err == nil) != (wantErr == nil) || (err == nil && !reflect.DeepEqual(got, want)) {
		t.Fatalf("header %q\nDecodeSpans    %+v, %v\njson.Unmarshal %+v, %v", h, got, err, want, wantErr)
	}
	if err != nil && fmt.Sprint(err) != "telemetry: bad spans header: "+wantErr.Error() {
		t.Fatalf("header %q: DecodeSpans says %v, json.Unmarshal %v", h, err, wantErr)
	}
}
