package lockserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
)

// This file is the RESP subset both ends of a connection speak: requests
// are arrays of bulk strings; replies are simple strings, errors,
// integers, bulk strings or the nil bulk. Everything is encoded by
// appending to a buffer the connection owns and decoded from the
// bufio.Reader's own window, so a request costs no allocation for framing.

// Decoder bounds: a peer's declared length is never trusted further than
// this, and never allocated before the bytes it promises have arrived.
const (
	maxArgs   = 64
	maxBulk   = 1 << 20
	readChunk = 4096
)

func appendCRLF(dst []byte) []byte { return append(dst, '\r', '\n') }

func appendHeader(dst []byte, kind byte, n int64) []byte {
	return appendCRLF(strconv.AppendInt(append(dst, kind), n, 10))
}

func appendSimple(dst []byte, s string) []byte { return appendCRLF(append(append(dst, '+'), s...)) }
func appendError(dst []byte, s string) []byte {
	return appendCRLF(append(append(dst, "-ERR "...), s...))
}
func appendInt(dst []byte, n int64) []byte { return appendHeader(dst, ':', n) }
func appendNil(dst []byte) []byte          { return append(dst, "$-1\r\n"...) }
func appendBulk(dst []byte, s string) []byte {
	return appendCRLF(append(appendHeader(dst, '$', int64(len(s))), s...))
}

// appendBulkInt appends n's decimal digits as a bulk string.
func appendBulkInt(dst []byte, n int64) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], n, 10)
	return appendCRLF(append(appendHeader(dst, '$', int64(len(d))), d...))
}

// readLine returns the next line without its terminator. The slice aliases
// the reader's buffer and is valid until the next read.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return nil, err // includes bufio.ErrBufferFull: no header is that long
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseInt is strconv.ParseInt(string(b), 10, 64) without the conversion.
func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// readHeader reads a "<kind><n>" line with 0 <= n <= limit.
func readHeader(r *bufio.Reader, kind byte, limit int64) (int, error) {
	line, err := readLine(r)
	if err != nil {
		return 0, err
	}
	if len(line) == 0 || line[0] != kind {
		return 0, fmt.Errorf("lockserver: expected %q header, got %q", kind, line)
	}
	n, ok := parseInt(line[1:])
	if !ok || n < 0 || n > limit {
		return 0, fmt.Errorf("lockserver: bad length %q", line)
	}
	return int(n), nil
}

// readBulkBody appends a bulk string's n bytes to dst and consumes its
// CRLF. dst grows a chunk at a time, as the bytes arrive.
func readBulkBody(r *bufio.Reader, dst []byte, n int) ([]byte, error) {
	for want := n + 2; want > 0; {
		chunk := min(want, readChunk)
		dst = slices.Grow(dst, chunk)
		got, err := io.ReadFull(r, dst[len(dst):len(dst)+chunk])
		dst = dst[:len(dst)+got]
		if err != nil {
			return dst, err
		}
		want -= chunk
	}
	if end := len(dst) - 2; dst[end] != '\r' || dst[end+1] != '\n' {
		return dst, errors.New("lockserver: bulk string missing CRLF")
	}
	return dst[:len(dst)-2], nil
}

// commandReader parses requests off one connection into storage it reuses.
type commandReader struct {
	r    *bufio.Reader
	buf  []byte
	args [][]byte
}

// read returns the next request's arguments; they alias the reader's
// storage and are valid until the next call.
func (c *commandReader) read() ([][]byte, error) {
	n, err := readHeader(c.r, '*', maxArgs)
	if err != nil {
		return nil, err
	}
	if cap(c.buf) > 16*readChunk {
		c.buf = nil // one large value must not pin its buffer for the connection's life
	}
	c.buf, c.args = c.buf[:0], c.args[:0]
	for i := 0; i < n; i++ {
		size, err := readHeader(c.r, '$', maxBulk)
		if err != nil {
			return nil, err
		}
		start := len(c.buf)
		if c.buf, err = readBulkBody(c.r, c.buf, size); err != nil {
			return nil, err
		}
		// A later argument may move buf; this slice keeps the old array.
		c.args = append(c.args, c.buf[start:])
	}
	return c.args, nil
}

// reply is the decoded RESP response.
type reply struct {
	kind  byte // '+', '-', ':', '$'
	str   string
	n     int64
	isNil bool
}

func readReply(r *bufio.Reader) (reply, error) {
	line, err := readLine(r)
	if err != nil {
		return reply{}, err
	}
	if len(line) == 0 {
		return reply{}, errors.New("lockserver: empty reply")
	}
	switch kind := line[0]; kind {
	case '+', '-':
		return reply{kind: kind, str: string(line[1:])}, nil
	case ':':
		n, ok := parseInt(line[1:])
		if !ok {
			return reply{}, fmt.Errorf("lockserver: bad integer reply %q", line)
		}
		return reply{kind: ':', n: n}, nil
	case '$':
		n, ok := parseInt(line[1:])
		if !ok || n > maxBulk {
			return reply{}, fmt.Errorf("lockserver: bad bulk length %q", line)
		}
		if n < 0 {
			return reply{kind: '$', isNil: true}, nil
		}
		body, err := readBulkBody(r, nil, int(n))
		if err != nil {
			return reply{}, err
		}
		return reply{kind: '$', str: string(body)}, nil
	default:
		return reply{}, fmt.Errorf("lockserver: unexpected reply %q", line)
	}
}
