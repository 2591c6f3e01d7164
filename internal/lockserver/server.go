package lockserver

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// Server serves the Store over TCP using a RESP subset: requests arrive as
// RESP arrays of bulk strings; replies are simple strings, bulk strings,
// integers, errors, or nil bulks — wire-compatible with the corresponding
// Redis commands.
type Server struct {
	store *Store

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool
	// closedCh unblocks handlers parked in a blocking WAITGE so Close's
	// wg.Wait cannot deadlock on them.
	closedCh chan struct{}
}

// NewServer returns a server over the given store.
func NewServer(store *Store) *Server {
	return &Server{store: store, conns: make(map[net.Conn]struct{}), closedCh: make(chan struct{})}
}

// Listen starts accepting connections on addr ("127.0.0.1:0" picks a free
// port) and returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("lockserver: listen: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// Close stops the listener and all connections, waiting for handler
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.closedCh)
	}
	ln := s.listener
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	in := commandReader{r: bufio.NewReader(conn)}
	var out []byte
	// The connection's one waiter: its requests are served one at a time,
	// so at most one of them is parked.
	var w waiter
	for {
		args, err := in.read()
		if err != nil {
			return
		}
		out = s.serve(out[:0], args, &w)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}

// upper folds an ASCII command name to upper case in a caller's scratch
// array, so matching it allocates nothing. Names longer than any the
// server knows are returned as they are (and match nothing).
func upper(scratch *[8]byte, name []byte) []byte {
	if len(name) > len(scratch) {
		return name
	}
	for i, c := range name {
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		scratch[i] = c
	}
	return scratch[:len(name)]
}

func appendBool(dst []byte, ok bool) []byte {
	if ok {
		return appendInt(dst, 1)
	}
	return appendInt(dst, 0)
}

// dispatch executes one request outside any connection, parking a WAITGE
// on a waiter of its own, and appends its reply to dst.
func (s *Server) dispatch(dst []byte, args [][]byte) []byte {
	return s.serve(dst, args, new(waiter))
}

// serve executes one request of a connection whose waiter is w and
// appends its reply to dst. Once the connection's buffers and w are warm,
// a request allocates nothing unless it inserts a key, sets a string, or
// fails.
func (s *Server) serve(dst []byte, args [][]byte, w *waiter) []byte {
	if len(args) == 0 {
		return appendError(dst, "empty command")
	}
	var scratch [8]byte
	name, args := args[0], args[1:]
	switch string(upper(&scratch, name)) {
	case "PING":
		return appendSimple(dst, "PONG")
	case "SET":
		if len(args) != 2 {
			return appendError(dst, "SET requires 2 arguments")
		}
		s.store.Set(string(args[0]), string(args[1]))
		return appendSimple(dst, "OK")
	case "GET":
		if len(args) != 1 {
			return appendError(dst, "GET requires 1 argument")
		}
		v, ok := s.store.Get(string(args[0]))
		if !ok {
			return appendNil(dst)
		}
		return appendBulk(dst, v)
	case "DEL":
		if len(args) != 1 {
			return appendError(dst, "DEL requires 1 argument")
		}
		return appendBool(dst, s.store.del(args[0]))
	case "INCR":
		if len(args) != 1 {
			return appendError(dst, "INCR requires 1 argument")
		}
		return s.cmdIncrBy(dst, args[0], 1)
	case "INCRBY":
		if len(args) != 2 {
			return appendError(dst, "INCRBY requires 2 arguments")
		}
		delta, ok := parseInt(args[1])
		if !ok {
			return appendError(dst, "invalid INCRBY increment")
		}
		return s.cmdIncrBy(dst, args[0], delta)
	case "WAITGE":
		return s.cmdWaitGE(dst, args, w)
	default:
		return appendError(dst, "unknown command "+string(name))
	}
}

func (s *Server) cmdIncrBy(dst, key []byte, delta int64) []byte {
	n, err := s.store.incrBy(key, delta)
	if err != nil {
		return appendError(dst, "value is not an integer")
	}
	return appendInt(dst, n)
}

// maxBlockingWait caps how long one WAITGE parks its handler, whatever
// timeout the client asked for: a bound on how long a dead client's
// handler goroutine can linger.
const maxBlockingWait = 30 * time.Second

// cmdWaitGE serves the blocking sequencer wait: WAITGE key target
// timeoutMs [delta] adds delta to the integer at key (missing = 0), then
// parks until it reaches target and replies with the current value. A
// timeout replies with the current (sub-target) value; the client
// re-issues a plain WAITGE or falls back to polling. A malformed request
// is rejected before anything is added.
func (s *Server) cmdWaitGE(dst []byte, args [][]byte, w *waiter) []byte {
	if len(args) != 3 && len(args) != 4 {
		return appendError(dst, "WAITGE requires key, target, timeout, and an optional delta")
	}
	target, ok := parseInt(args[1])
	if !ok {
		return appendError(dst, "invalid WAITGE target")
	}
	ms, ok := parseInt(args[2])
	if !ok || ms < 0 {
		return appendError(dst, "invalid WAITGE timeout")
	}
	var delta int64
	if len(args) == 4 {
		if delta, ok = parseInt(args[3]); !ok {
			return appendError(dst, "invalid WAITGE delta")
		}
	}
	timeout := min(time.Duration(ms)*time.Millisecond, maxBlockingWait)
	cur, err := s.store.waitGE(w, args[0], delta, target, timeout, s.closedCh)
	if err != nil {
		return appendError(dst, "value is not an integer")
	}
	return appendInt(dst, cur)
}
