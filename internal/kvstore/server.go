// Package kvstore is an in-memory key-value store speaking a subset of
// the RESP (REdis Serialization Protocol) wire format over TCP. It
// plays the role of the paper's host-local Redis instance: external
// storage for function inputs, outputs, and intermediate data that
// persists beyond the lifetime of an invocation (§5).
//
// Supported commands: PING, SET, GET — what the daemon's client sends.
package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
)

// Server is a RESP server over an in-memory map.
type Server struct {
	mu   sync.RWMutex
	data map[string][]byte

	lis    net.Listener
	wg     sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	conns  map[net.Conn]struct{}
}

// NewServer returns a server with an empty store, not yet listening.
func NewServer() *Server {
	return &Server{
		data:   make(map[string][]byte),
		closed: make(chan struct{}),
		conns:  make(map[net.Conn]struct{}),
	}
}

// Listen binds to addr ("127.0.0.1:0" picks a free port) and begins
// serving connections. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("kvstore: listen: %w", err)
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return lis.Addr().String(), nil
}

// Close stops the listener, force-closes active connections, and
// waits for connection handlers to finish.
func (s *Server) Close() {
	close(s.closed)
	if s.lis != nil {
		_ = s.lis.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.connMu.Lock()
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				conn.Close()
				s.connMu.Lock()
				delete(s.conns, conn)
				s.connMu.Unlock()
			}()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	for {
		select {
		case <-s.closed:
			return
		default:
		}
		args, err := readCommand(r)
		if err != nil {
			return // protocol error or EOF: drop the connection
		}
		if len(args) == 0 {
			continue
		}
		s.dispatch(w, args)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(w *bufio.Writer, args [][]byte) {
	cmd := strings.ToUpper(string(args[0]))
	switch cmd {
	case "PING":
		if len(args) == 2 {
			writeBulk(w, args[1])
		} else {
			writeSimple(w, "PONG")
		}
	case "SET":
		if !arity(w, args, 3) {
			return
		}
		s.mu.Lock()
		s.data[string(args[1])] = append([]byte(nil), args[2]...)
		s.mu.Unlock()
		writeSimple(w, "OK")
	case "GET":
		if !arity(w, args, 2) {
			return
		}
		s.mu.RLock()
		v, ok := s.data[string(args[1])]
		s.mu.RUnlock()
		if !ok {
			writeNil(w)
			return
		}
		writeBulk(w, v)
	default:
		writeError(w, fmt.Sprintf("unknown command '%s'", cmd))
	}
}

func arity(w *bufio.Writer, args [][]byte, want int) bool {
	if len(args) != want {
		writeError(w, fmt.Sprintf("wrong number of arguments for '%s' command", strings.ToLower(string(args[0]))))
		return false
	}
	return true
}

// --- RESP wire format ---

var errProtocol = errors.New("kvstore: protocol error")

// readCommand reads one RESP array of bulk strings (also accepting
// inline commands, like Redis).
func readCommand(r *bufio.Reader) ([][]byte, error) {
	line, err := readLine(r)
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, nil
	}
	if line[0] != '*' {
		// Inline command.
		fields := strings.Fields(string(line))
		out := make([][]byte, len(fields))
		for i, f := range fields {
			out[i] = []byte(f)
		}
		return out, nil
	}
	n, err := strconv.Atoi(string(line[1:]))
	if err != nil || n < 0 || n > 1024 {
		return nil, errProtocol
	}
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		hdr, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, errProtocol
		}
		l, err := strconv.Atoi(string(hdr[1:]))
		if err != nil || l < 0 || l > 512<<20 {
			return nil, errProtocol
		}
		buf := make([]byte, l+2)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		if buf[l] != '\r' || buf[l+1] != '\n' {
			return nil, errProtocol
		}
		out = append(out, buf[:l])
	}
	return out, nil
}

func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, errProtocol
	}
	return line[:len(line)-2], nil
}

func writeSimple(w *bufio.Writer, s string) { fmt.Fprintf(w, "+%s\r\n", s) }
func writeError(w *bufio.Writer, s string)  { fmt.Fprintf(w, "-ERR %s\r\n", s) }
func writeNil(w *bufio.Writer)              { fmt.Fprint(w, "$-1\r\n") }
func writeBulk(w *bufio.Writer, b []byte) {
	fmt.Fprintf(w, "$%d\r\n", len(b))
	w.Write(b)
	w.WriteString("\r\n")
}
