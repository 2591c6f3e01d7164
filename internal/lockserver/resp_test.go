package lockserver

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// subsetCommands is one well-formed request per command the server knows,
// plus the shapes the framing has to carry: an empty argument, a binary
// one, one longer than a read chunk. It keeps the lease requests the server
// no longer serves (SET NX PX, CAD, CEX): they still have to frame, and
// dispatch to an error reply.
var subsetCommands = [][]string{
	{"PING"},
	{"SET", "k", "v"},
	{"SET", "lock", "token", "NX", "PX", "30000"},
	{"GET", "k"},
	{"DEL", "k"},
	{"INCR", "live/sess/0/1:turn"},
	{"INCRBY", "live/sess/0/1:turn", "7"},
	{"WAITGE", "live/sess/0/1:turn", "12", "100"},
	{"WAITGE", "live/sess/0/1:turn", "12", "100", "3"},
	{"CAD", "lock", "token"},
	{"CEX", "lock", "token", "30000"},
	{"SET", "", "\r\n$3\r\n\x00"},
	{"SET", "big", strings.Repeat("x", 3*readChunk+17)},
}

// appendCommand appends one request of any shape, the empty one included;
// the client encodes the commands it sends with appendRequest.
func appendCommand(dst []byte, args ...string) []byte {
	dst = appendHeader(dst, '*', int64(len(args)))
	for _, a := range args {
		dst = appendBulk(dst, a)
	}
	return dst
}

// malformedRequests are framings the reader must refuse without trusting
// their declared lengths.
var malformedRequests = []string{
	"",
	"PING\r\n",
	"*\r\n",
	"*-1\r\n",
	"*65\r\n",
	"*1\r\n$1048577\r\n",
	"*1\r\n$1048576\r\nab",
	"*2\r\n$4\r\nPING\r\n",
	"*1\r\n$4\r\nPINGxx",
	"*1\r\n:4\r\nPING\r\n",
	"*1\r\n$99999999999999999999\r\n",
	"*1\r\n$" + strings.Repeat("9", 5000),
}

// FuzzReadCommand: the request reader never panics, never holds more
// memory than about twice what has arrived (whatever length the peer
// declared), and every request it accepts re-encodes to a request it reads
// back identically.
func FuzzReadCommand(f *testing.F) {
	for _, cmd := range subsetCommands {
		f.Add(appendCommand(nil, cmd...))
	}
	var pipelined []byte
	for _, cmd := range subsetCommands[:6] {
		pipelined = appendCommand(pipelined, cmd...)
	}
	f.Add(pipelined)
	for _, bad := range malformedRequests {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := commandReader{r: bufio.NewReader(bytes.NewReader(data))}
		for {
			args, err := in.read()
			if limit := 2*len(data) + 2*readChunk; cap(in.buf) > limit {
				t.Fatalf("reader holds %d bytes for %d bytes of input", cap(in.buf), len(data))
			}
			if err != nil {
				return
			}
			strs := make([]string, len(args))
			for i, a := range args {
				strs[i] = string(a)
			}
			again := commandReader{r: bufio.NewReader(bytes.NewReader(appendCommand(nil, strs...)))}
			back, err := again.read()
			if err != nil || len(back) != len(strs) {
				t.Fatalf("re-encoded %q reads back as %q, %v", strs, back, err)
			}
			for i := range back {
				if string(back[i]) != strs[i] {
					t.Fatalf("argument %d of %q reads back as %q", i, strs, back[i])
				}
			}
			// Whatever parses must also dispatch without panicking; a
			// WAITGE would park, so cap its timeout argument first.
			if len(strs) >= 4 && strings.EqualFold(strs[0], "WAITGE") {
				args[3] = []byte("0")
			}
			_ = NewServer(NewStore()).dispatch(nil, args)
		}
	})
}

// subsetReplies is one of each reply shape the server produces.
var subsetReplies = [][]byte{
	appendSimple(nil, "OK"),
	appendSimple(nil, "PONG"),
	appendError(nil, "unknown command NONSENSE"),
	appendInt(nil, 0),
	appendInt(nil, -100),
	appendInt(nil, 1<<40),
	appendNil(nil),
	appendBulk(nil, ""),
	appendBulk(nil, "token"),
	appendBulk(nil, "a\r\nb"),
	appendBulk(nil, strings.Repeat("y", 2*readChunk+3)),
}

var malformedReplies = []string{
	"",
	"\r\n",
	"?what\r\n",
	":\r\n",
	":12x\r\n",
	":99999999999999999999\r\n",
	"$1048577\r\n",
	"$1048576\r\nab",
	"$3\r\nabcde",
	"$-2\r\n",
	"+" + strings.Repeat("z", 5000),
}

// FuzzReadReply: the reply reader never panics, allocates for a bulk only
// as its bytes arrive, and every reply it accepts re-encodes to one it
// reads back identically.
func FuzzReadReply(f *testing.F) {
	for _, rep := range subsetReplies {
		f.Add(rep)
	}
	for _, bad := range malformedReplies {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		for {
			rep, err := readReply(r)
			if err != nil {
				return
			}
			if len(rep.str) > len(data) {
				t.Fatalf("reply carries %d bytes out of %d bytes of input", len(rep.str), len(data))
			}
			var wire []byte
			switch {
			case rep.kind == '+':
				wire = appendSimple(nil, rep.str)
			case rep.kind == '-':
				wire = appendCRLF(append([]byte{'-'}, rep.str...))
			case rep.kind == ':':
				wire = appendInt(nil, rep.n)
			case rep.isNil:
				wire = appendNil(nil)
			default:
				wire = appendBulk(nil, rep.str)
			}
			back, err := readReply(bufio.NewReader(bytes.NewReader(wire)))
			if err != nil || back != rep {
				t.Fatalf("re-encoded %+v reads back as %+v, %v", rep, back, err)
			}
		}
	})
}
