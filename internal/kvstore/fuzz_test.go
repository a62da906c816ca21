package kvstore

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzReadCommand hammers the RESP parser with arbitrary bytes: it
// must never panic and never return a command with more elements than
// the protocol allows.
func FuzzReadCommand(f *testing.F) {
	f.Add([]byte("PING\r\n"))
	f.Add([]byte("*1\r\n$4\r\nPING\r\n"))
	f.Add([]byte("*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"))
	f.Add([]byte("*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"))
	f.Add([]byte("*-1\r\n"))
	f.Add([]byte("*99999999\r\n"))
	f.Add([]byte("$5\r\nhello\r\n"))
	f.Add([]byte("\r\n"))
	f.Add([]byte{0xff, 0xfe, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 8; i++ {
			args, err := readCommand(r)
			if err != nil {
				return
			}
			if len(args) > 1024 {
				t.Fatalf("oversized command: %d args", len(args))
			}
		}
	})
}

// FuzzDispatch feeds parsed-looking commands to the dispatcher; it
// must always produce some reply bytes and never panic.
func FuzzDispatch(f *testing.F) {
	f.Add("SET", "k", "v")
	f.Add("GET", "k", "")
	f.Add("PING", "", "")
	f.Add("WHAT", "ever", "x")
	f.Add("PING", "payload", "")
	f.Fuzz(func(t *testing.T, a, b, c string) {
		s := NewServer()
		var out bytes.Buffer
		w := bufio.NewWriter(&out)
		args := [][]byte{[]byte(a)}
		if b != "" {
			args = append(args, []byte(b))
		}
		if c != "" {
			args = append(args, []byte(c))
		}
		s.dispatch(w, args)
		w.Flush()
		if out.Len() == 0 {
			t.Fatal("dispatch produced no reply")
		}
	})
}
