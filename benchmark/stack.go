package main

// The serving stack under test, stood up in-process exactly as
// cmd/faasnapd and cmd/faasnap-gw assemble it: real daemon.New and
// gateway.New behind loopback TCP listeners.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"faasnap/internal/core"
	"faasnap/internal/daemon"
	"faasnap/internal/gateway"
)

var quietLog = log.New(io.Discard, "", 0)

// node is one daemon on its own listener.
type node struct {
	d       *daemon.Daemon
	handler http.Handler // what srv serves; the traced run also calls it in-process
	srv     *http.Server
	addr    string
	dir     string // state dir; "" runs without persistence
}

// startNode opens a daemon on stateDir (which may already hold state:
// daemon.New then recovers it synchronously) and serves it.
func startNode(stateDir string) (*node, error) {
	d, err := daemon.New(daemon.Config{
		Host:      core.DefaultHostConfig(),
		Logger:    quietLog,
		QuietHTTP: true,
		StateDir:  stateDir,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	h := d.Handler()
	n := &node{d: d, handler: h, srv: &http.Server{Handler: h}, addr: ln.Addr().String(), dir: stateDir}
	go n.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	return n, nil
}

func (n *node) base() string { return "http://" + n.addr }

// stop closes the listener and every connection, then the daemon; the
// state dir is left for the caller (a recovery reopens it).
func (n *node) stop() {
	n.srv.Close()
	n.d.Close()
}

// stack is the set of processes one workload talks to.
type stack struct {
	nodes  []*node
	gw     *gateway.Gateway
	gwSrv  *http.Server
	target string // base URL requests go to: the gateway, or the only daemon
}

// startStack brings up n daemons, each on its own state dir under
// root when persistent, fronted by a gateway at shipping defaults
// (1 s sweep, 1 standby) when asked.
func startStack(root string, n int, persistent, withGateway bool) (*stack, error) {
	s := &stack{}
	for i := 0; i < n; i++ {
		dir := ""
		if persistent {
			var err error
			if dir, err = os.MkdirTemp(root, "state-"); err != nil {
				s.stop()
				return nil, err
			}
		}
		nd, err := startNode(dir)
		if err != nil {
			s.stop()
			return nil, err
		}
		s.nodes = append(s.nodes, nd)
	}
	if !withGateway {
		s.target = s.nodes[0].base()
		return s, nil
	}
	addrs := make([]string, n)
	for i, nd := range s.nodes {
		addrs[i] = nd.addr
	}
	gw, err := gateway.New(gateway.Config{Backends: addrs, Logger: quietLog, QuietHTTP: true})
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.stop()
		return nil, err
	}
	s.gwSrv = &http.Server{Handler: gw.Handler()}
	go s.gwSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	s.target = "http://" + ln.Addr().String()
	return s, nil
}

// stop shuts everything down and removes the state dirs.
func (s *stack) stop() {
	if s.gwSrv != nil {
		s.gwSrv.Close()
	}
	if s.gw != nil {
		s.gw.Close()
	}
	for _, n := range s.nodes {
		n.stop()
		if n.dir != "" {
			os.RemoveAll(n.dir)
		}
	}
}

// nodeAt finds the daemon listening on addr (the X-Faasnap-Backend a
// gateway reply names).
func (s *stack) nodeAt(addr string) *node {
	for _, n := range s.nodes {
		if n.addr == addr {
			return n
		}
	}
	return nil
}

// conn is one client connection: an http.Client that keeps exactly one
// connection per host, so "2 clients" is also "2 connections".
type conn struct{ c *http.Client }

func newConn() *conn {
	return &conn{c: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: time.Minute},
		Timeout:   2 * time.Minute,
	}}
}

func (c *conn) close() { c.c.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	header http.Header
	body   []byte
	wall   time.Duration // from just before the write to after the body is read
}

func (c *conn) do(ctx context.Context, method, url string, body []byte, header http.Header) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range header {
		req.Header[k] = v
	}
	start := time.Now()
	resp, err := c.c.Do(req)
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, header: resp.Header, body: raw, wall: time.Since(start)}, nil
}

// must is do for set-up calls, where anything but 2xx aborts the run.
func (c *conn) must(ctx context.Context, method, url string, body []byte) (reply, error) {
	r, err := c.do(ctx, method, url, body, nil)
	if err != nil {
		return r, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if r.status/100 != 2 {
		return r, fmt.Errorf("%s %s: %d %s", method, url, r.status, bytes.TrimSpace(r.body))
	}
	return r, nil
}

func mustJSON(v interface{}) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // static request shapes
	}
	return raw
}

// register PUTs f at base; record records it with input A.
func (c *conn) register(ctx context.Context, base string, f fnSpec) error {
	_, err := c.must(ctx, http.MethodPut, base+"/functions/"+f.Name, f.Body)
	return err
}

func (c *conn) record(ctx context.Context, base, fn string) (reply, error) {
	return c.must(ctx, http.MethodPost, base+"/functions/"+fn+"/record", mustJSON(map[string]string{"input": recordInput}))
}

// requestFor renders a cell as its HTTP request.
func requestFor(base string, c cell) (url string, body []byte) {
	if c.Parallel > 0 {
		return base + "/functions/" + c.Fn + "/burst", mustJSON(map[string]interface{}{
			"mode": c.Mode, "input": c.Input, "parallel": c.Parallel, "same_snapshot": c.Same,
		})
	}
	return base + "/functions/" + c.Fn + "/invoke", mustJSON(map[string]string{"mode": c.Mode, "input": c.Input})
}
