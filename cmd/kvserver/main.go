// Command kvserver runs the TCP key-value service of internal/kvservice: N
// partitioned lock-free hash map namespaces, each on its own Record Manager,
// behind the length-prefixed internal/kvwire protocol (GET/PUT/DEL/STATS —
// see docs/PROTOCOL.md for the wire format and docs/OPERATIONS.md for every
// flag and how to choose a scheme).
//
// Every connection goroutine follows the dynamic-slot churn contract: it
// binds a worker slot in every partition for a -burst of requests and then
// releases the slots back (a connection that goes quiet mid-burst releases
// after -idlehold instead), so the server admits any number of connections
// while -maxconns bounds how many the reclamation schemes ever see at once.
//
// The service degrades gracefully under faults and overload: -readtimeout
// and -writetimeout bound every frame, slot waits are bounded by
// -acquirewait with an ERR_BUSY fast-fail past it, and a watchdog reaps
// peers that complete no frame within -reapafter.
//
// The request path is batch-oriented: every complete frame already buffered
// on a connection (up to -pipeline-depth) executes as one batch under a
// single slot acquisition and is answered with a single write, so pipelining
// clients (kvload -pipeline) amortise the per-request syscall cost.
//
//	kvserver -addr :7070 -scheme debra -partitions 4 -maxconns 64
//	kvserver -scheme hp
//	kvserver -pprof 127.0.0.1:6060     # live CPU/alloc profiles during load
//
// On SIGINT/SIGTERM the server drains connections, closes every partition's
// Record Manager and prints a final stats snapshot (the same JSON document a
// STATS request returns) to stderr, so a supervised run always ends with the
// Retired/Freed accounting on record.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof registers the profiling handlers
	"os"
	"os/signal"
	"syscall"

	"repro/internal/kvservice"
	"repro/internal/recordmgr"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:7070", "listen address (host:port)")
		scheme      = flag.String("scheme", recordmgr.SchemeDEBRA, fmt.Sprintf("reclamation scheme: %v (debra+ is refused: the hash map does not take it)", recordmgr.Schemes()))
		partitions  = flag.Int("partitions", 1, "independent map namespaces, each with its own Record Manager")
		maxConns    = flag.Int("maxconns", 8, "worker-slot capacity per partition: connections holding a burst concurrently")
		burst       = flag.Int("burst", 64, "requests a connection serves per slot hold before releasing")
		pipeDepth   = flag.Int("pipeline-depth", 0, "max buffered request frames executed as one batch per connection (0 = library default, 32)")
		idleHold    = flag.Duration("idlehold", 0, "how long an idle connection may keep its slots mid-burst before releasing them (0 = library default)")
		readTO      = flag.Duration("readtimeout", 0, "per-frame read deadline: a peer that delivers no complete request within it is dropped (0 = library default, 30s)")
		writeTO     = flag.Duration("writetimeout", 0, "per-response write deadline: a peer that stops reading is dropped once it expires (0 = library default, 10s)")
		acquireWait = flag.Duration("acquirewait", 0, "how long a request may wait for a worker slot before the ERR_BUSY fast-fail (0 = library default, 100ms)")
		reapAfter   = flag.Duration("reapafter", 0, "slow-peer reaper threshold: connections completing no frame within it are closed (0 = library default, 2x readtimeout)")
		buckets     = flag.Int("buckets", 0, "initial bucket count per partition (0 = map default)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address (host:port; empty = disabled)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		// Surface bind errors synchronously; the profiling server itself
		// runs in the background for the process lifetime.
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fatal(fmt.Errorf("pprof listen: %w", err))
		}
		fmt.Fprintf(os.Stderr, "kvserver: pprof on http://%s/debug/pprof/\n", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				fmt.Fprintln(os.Stderr, "kvserver: pprof server:", err)
			}
		}()
	}

	srv, err := kvservice.New(kvservice.Config{
		Scheme:         *scheme,
		Partitions:     *partitions,
		MaxConns:       *maxConns,
		Burst:          *burst,
		PipelineDepth:  *pipeDepth,
		IdleHold:       *idleHold,
		ReadTimeout:    *readTO,
		WriteTimeout:   *writeTO,
		AcquireWait:    *acquireWait,
		ReapAfter:      *reapAfter,
		UsePool:        true,
		InitialBuckets: *buckets,
	})
	if err != nil {
		fatal(err)
	}
	laddr, err := srv.Start(*addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kvserver: serving %s on %s (%d partitions, %d slots each, burst %d)\n",
		*scheme, laddr, *partitions, *maxConns, *burst)

	// Block until asked to stop; Close drains the connection handlers and
	// tears down every partition's Record Manager (reclaiming schemes exit
	// with Retired == Freed — visible in the final snapshot below).
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	sig := <-sigc
	fmt.Fprintf(os.Stderr, "kvserver: %s, shutting down\n", sig)

	srv.Close()
	// The post-Close snapshot is the authoritative one: every connection's
	// tally has merged and every partition's limbo has drained (Retired ==
	// Freed for every reclaiming scheme).
	out, err := json.MarshalIndent(srv.Stats(), "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kvserver:", err)
	os.Exit(1)
}
