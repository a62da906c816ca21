package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"syscall"
)

// Client is a RESP client for the kvstore server (or a real Redis).
// It is safe for concurrent use; commands are serialized on one
// connection. A broken connection (the server restarted, an idle
// connection was reaped) is re-dialed once per command, so a
// multi-process deployment survives a kvstored restart without every
// dependent process having to rebuild its client.
type Client struct {
	addr string
	mu   sync.Mutex
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
}

// Dial connects to a kvstore server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore: dial %s: %w", addr, err)
	}
	return &Client{
		addr: addr,
		conn: conn,
		r:    bufio.NewReader(conn),
		w:    bufio.NewWriter(conn),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// reconnectable reports whether err means the connection is dead (and
// a fresh dial may succeed) rather than a protocol-level failure. A
// server reply the client could parse — including RESP errors — never
// lands here.
func reconnectable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.EPIPE) || errors.Is(err, syscall.ECONNRESET) {
		return true
	}
	var ne net.Error
	return errors.As(err, &ne)
}

// redial replaces the broken connection. Caller holds c.mu.
func (c *Client) redial() error {
	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	_ = c.conn.Close()
	c.conn = conn
	c.r = bufio.NewReader(conn)
	c.w = bufio.NewWriter(conn)
	return nil
}

// ErrNil is returned by Get for missing keys.
var ErrNil = errors.New("kvstore: nil reply")

// reply is one parsed RESP response: a simple string, an error or a
// bulk string — the types PING, SET and GET are answered with.
type reply struct {
	kind  byte // '+', '-', '$'
	str   string
	bulk  []byte
	isNil bool
}

func (c *Client) cmd(args ...[]byte) (reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, err := c.send(args)
	if err == nil || !reconnectable(err) {
		return r, err
	}
	// The connection died under us. Commands here are idempotent
	// key-value operations, so one re-dial plus one replay is safe; if
	// the dial fails the original error surfaces.
	if derr := c.redial(); derr != nil {
		return r, err
	}
	return c.send(args)
}

// send writes one command and reads its reply. Caller holds c.mu.
func (c *Client) send(args [][]byte) (reply, error) {
	fmt.Fprintf(c.w, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(c.w, "$%d\r\n", len(a))
		c.w.Write(a)
		c.w.WriteString("\r\n")
	}
	if err := c.w.Flush(); err != nil {
		return reply{}, err
	}
	return c.readReply()
}

func (c *Client) readReply() (reply, error) {
	line, err := readLine(c.r)
	if err != nil {
		return reply{}, err
	}
	if len(line) == 0 {
		return reply{}, errProtocol
	}
	switch line[0] {
	case '+':
		return reply{kind: '+', str: string(line[1:])}, nil
	case '-':
		return reply{kind: '-', str: string(line[1:])}, nil
	case '$':
		l, err := strconv.Atoi(string(line[1:]))
		if err != nil {
			return reply{}, errProtocol
		}
		if l < 0 {
			return reply{kind: '$', isNil: true}, nil
		}
		buf := make([]byte, l+2)
		if _, err := io.ReadFull(c.r, buf); err != nil {
			return reply{}, err
		}
		return reply{kind: '$', bulk: buf[:l]}, nil
	}
	return reply{}, errProtocol
}

func (r reply) err() error {
	if r.kind == '-' {
		return errors.New(r.str)
	}
	return nil
}

// Ping checks liveness.
func (c *Client) Ping() error {
	r, err := c.cmd([]byte("PING"))
	if err != nil {
		return err
	}
	if err := r.err(); err != nil {
		return err
	}
	if r.str != "PONG" {
		return fmt.Errorf("kvstore: unexpected ping reply %q", r.str)
	}
	return nil
}

// Set stores value under key.
func (c *Client) Set(key string, value []byte) error {
	r, err := c.cmd([]byte("SET"), []byte(key), value)
	if err != nil {
		return err
	}
	return r.err()
}

// Get fetches key's value, or ErrNil.
func (c *Client) Get(key string) ([]byte, error) {
	r, err := c.cmd([]byte("GET"), []byte(key))
	if err != nil {
		return nil, err
	}
	if err := r.err(); err != nil {
		return nil, err
	}
	if r.isNil {
		return nil, ErrNil
	}
	return r.bulk, nil
}
