package pipenet

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDialAccept(t *testing.T) {
	l := NewListener("test")
	defer l.Close()
	done := make(chan string, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err.Error()
			return
		}
		defer conn.Close()
		line, _ := bufio.NewReader(conn).ReadString('\n')
		done <- line
	}()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(c, "hello")
	c.Close()
	if got := <-done; got != "hello\n" {
		t.Fatalf("got %q", got)
	}
}

func TestClosedListener(t *testing.T) {
	l := NewListener("x")
	l.Close()
	l.Close() // idempotent
	if _, err := l.Dial(); err != ErrClosed {
		t.Fatalf("dial err = %v", err)
	}
	if _, err := l.Accept(); err != ErrClosed {
		t.Fatalf("accept err = %v", err)
	}
}

func TestAddr(t *testing.T) {
	l := NewListener("vm7-api.sock")
	if l.Addr().Network() != "pipe" || l.Addr().String() != "vm7-api.sock" {
		t.Fatalf("addr = %v/%v", l.Addr().Network(), l.Addr().String())
	}
}

func TestDialFault(t *testing.T) {
	l := NewListener("faulty")
	defer l.Close()
	refused := errors.New("connection refused")
	l.SetDialFault(func() (time.Duration, error) { return 0, refused })
	if _, err := l.Dial(); !errors.Is(err, refused) {
		t.Fatalf("dial err = %v, want injected refusal", err)
	}

	// A delay-only fault stalls the dial but still connects.
	l.SetDialFault(func() (time.Duration, error) { return 5 * time.Millisecond, nil })
	go func() {
		conn, err := l.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	start := time.Now()
	c, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("delayed dial completed in %v", d)
	}

	// Clearing the fault restores normal dialing.
	l.SetDialFault(nil)
	go func() {
		conn, err := l.Accept()
		if err == nil {
			conn.Close()
		}
	}()
	if _, err := l.Dial(); err != nil {
		t.Fatalf("dial after clearing fault: %v", err)
	}
}

func TestDialFaultDelayUnblocksOnClose(t *testing.T) {
	l := NewListener("stuck")
	l.SetDialFault(func() (time.Duration, error) { return time.Hour, nil })
	errCh := make(chan error, 1)
	go func() {
		_, err := l.Dial()
		errCh <- err
	}()
	time.Sleep(time.Millisecond)
	l.Close()
	select {
	case err := <-errCh:
		if err != ErrClosed {
			t.Fatalf("dial err = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("dial still stuck after listener close")
	}
}

func TestServesHTTP(t *testing.T) {
	l := NewListener("http")
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "pong")
	})
	srv := &http.Server{Handler: mux}
	go srv.Serve(l)
	defer srv.Close()

	client := &http.Client{Transport: Transport(l)}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get("http://guest/ping")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			buf := make([]byte, 4)
			n, _ := resp.Body.Read(buf)
			if string(buf[:n]) != "pong" {
				t.Errorf("body = %q", buf[:n])
			}
		}()
	}
	wg.Wait()
}

// A Transport's connections are per request: each request dials — so a
// dial fault sees every request, not every connection — and nothing is
// kept alive for a later one.
func TestTransportDialsPerRequest(t *testing.T) {
	l := NewListener("http")
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "pong")
	})}
	go srv.Serve(l)
	defer srv.Close()
	var dials atomic.Int64
	l.SetDialFault(func() (time.Duration, error) {
		dials.Add(1)
		return 0, nil
	})

	client := &http.Client{Transport: Transport(l)}
	for i := 0; i < 5; i++ {
		resp, err := client.Get("http://guest/ping")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if n := dials.Load(); n != 5 {
		t.Fatalf("%d dials for 5 requests, want one each", n)
	}
}

// The reply buffer is sized to the usual reply, not a limit: a header
// line and a body several times its size, and a request body far past
// the write buffer, cross intact.
func TestTransportCarriesLargeMessages(t *testing.T) {
	l := NewListener("http")
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		w.Header().Set("X-Echo-Len", fmt.Sprint(len(body)))
		w.Header().Set("X-Big", strings.Repeat("h", 8*replyBufferSize))
		w.Write(body[:16*replyBufferSize])
	})}
	go srv.Serve(l)
	defer srv.Close()

	req := strings.Repeat("0123456789abcdef", 6<<10) // 96 KiB
	resp, err := (&http.Client{Transport: Transport(l)}).Post("http://vmm/", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Echo-Len") != fmt.Sprint(len(req)) || len(resp.Header.Get("X-Big")) != 8*replyBufferSize ||
		string(got) != req[:16*replyBufferSize] {
		t.Fatalf("echo len %s, header %d B, body %d B", resp.Header.Get("X-Echo-Len"), len(resp.Header.Get("X-Big")), len(got))
	}
}
