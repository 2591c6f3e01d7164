// Command lockd runs ER-π's distributed lock server: a Redis-compatible
// (RESP subset) key-value store, the coordination point that enforces
// event order during distributed replay (paper §4.3).
//
//	lockd -addr 127.0.0.1:6380
//
// Supported commands: PING, SET key value, GET key, DEL key, INCR key,
// INCRBY key n, and WAITGE key target timeoutMs [delta] (add delta to the
// counter at key, then block until it reaches target: the replay ticket
// lock's wait and hand-off).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"github.com/er-pi/erpi/internal/lockserver"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:6380", "listen address")
	flag.Parse()

	srv := lockserver.NewServer(lockserver.NewStore())
	bound, err := srv.Listen(*addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockd:", err)
		return 1
	}
	fmt.Println("lockd listening on", bound)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	<-stop
	fmt.Println("lockd shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "lockd:", err)
		return 1
	}
	return 0
}
