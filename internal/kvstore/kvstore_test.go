package kvstore

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func newPair(t *testing.T) *Client {
	t.Helper()
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPing(t *testing.T) {
	c := newPair(t)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestSetGet(t *testing.T) {
	c := newPair(t)
	if err := c.Set("input:image:A", []byte("jpegdata")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("input:image:A")
	if err != nil || !bytes.Equal(v, []byte("jpegdata")) {
		t.Fatalf("get = %q, %v", v, err)
	}
}

func TestGetMissingIsNil(t *testing.T) {
	c := newPair(t)
	_, err := c.Get("missing")
	if err != ErrNil {
		t.Fatalf("err = %v, want ErrNil", err)
	}
}

func TestBinarySafety(t *testing.T) {
	c := newPair(t)
	blob := make([]byte, 1<<16)
	for i := range blob {
		blob[i] = byte(i)
	}
	blob[100] = '\r'
	blob[101] = '\n'
	if err := c.Set("bin", blob); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get("bin")
	if err != nil || !bytes.Equal(v, blob) {
		t.Fatalf("binary round trip failed: len=%d err=%v", len(v), err)
	}
}

func TestUnknownCommandError(t *testing.T) {
	c := newPair(t)
	r, err := c.cmd([]byte("WHATISTHIS"))
	if err != nil {
		t.Fatal(err)
	}
	if r.err() == nil {
		t.Fatal("unknown command did not error")
	}
}

func TestConcurrentClients(t *testing.T) {
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i)
				if err := c.Set(key, []byte(key)); err != nil {
					t.Error(err)
					return
				}
				v, err := c.Get(key)
				if err != nil || string(v) != key {
					t.Errorf("get %s = %q, %v", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.mu.RLock()
	n := len(s.data)
	s.mu.RUnlock()
	if n != 400 {
		t.Fatalf("keys stored = %d, want 400", n)
	}
}

func TestInlineCommand(t *testing.T) {
	// The server also accepts inline commands like a real Redis.
	s := NewServer()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fmt.Fprintf(c.w, "PING\r\n")
	if err := c.w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := c.readReply()
	if err != nil || r.str != "PONG" {
		t.Fatalf("inline ping = %+v, %v", r, err)
	}
}
