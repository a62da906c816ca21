package telemetry

// Flat reads the exact bytes json.Marshal writes for a fixed struct
// shape in one pass: literals in field order, strings with no byte
// that needs escaping, and plain integers. The first mismatch marks
// the scan bad for good, so a caller checks once, with Done, and hands
// anything Flat refuses to encoding/json, whose answer for it stands.
type Flat[T ~string | ~[]byte] struct {
	Src T
	pos int
	bad bool
}

// plain reports whether json.Marshal writes c in a string as it is:
// printable ASCII but for ", \ and the HTML-escaped <, > and &.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// Opt consumes lit when the input continues with it, and reports
// whether it did.
func (f *Flat[T]) Opt(lit string) bool {
	if f.bad || len(f.Src)-f.pos < len(lit) || string(f.Src[f.pos:f.pos+len(lit)]) != lit {
		return false
	}
	f.pos += len(lit)
	return true
}

// Lit consumes lit, or marks the scan bad.
func (f *Flat[T]) Lit(lit string) { f.bad = f.bad || !f.Opt(lit) }

// Str consumes lit and a quoted string of plain bytes, and returns the
// string's contents, a subslice of Src.
func (f *Flat[T]) Str(lit string) (s T) {
	f.Lit(lit)
	f.Lit(`"`)
	start := f.pos
	for f.pos < len(f.Src) && plain(f.Src[f.pos]) {
		f.pos++
	}
	if f.Lit(`"`); !f.bad {
		s = f.Src[start : f.pos-1]
	}
	return s
}

// Int consumes lit and an integer as json.Marshal writes one: an
// optional minus, then at most 18 digits without a leading zero, so
// it fits an int64.
func (f *Flat[T]) Int(lit string) (v int64) {
	f.Lit(lit)
	neg := f.Opt("-")
	start := f.pos
	for ; f.pos < len(f.Src) && f.pos-start < 18 && '0' <= f.Src[f.pos] && f.Src[f.pos] <= '9'; f.pos++ {
		v = v*10 + int64(f.Src[f.pos]-'0')
	}
	n := f.pos - start
	f.bad = f.bad || n == 0 || (n > 1 && f.Src[start] == '0') ||
		(f.pos < len(f.Src) && '0' <= f.Src[f.pos] && f.Src[f.pos] <= '9')
	if neg {
		return -v
	}
	return v
}

// Done reports whether the scan took all of Src without a mismatch.
func (f *Flat[T]) Done() bool { return !f.bad && f.pos == len(f.Src) }
