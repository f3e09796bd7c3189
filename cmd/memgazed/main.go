// Command memgazed is the MemGaze-Go trace-analysis service: a
// long-running HTTP daemon that accepts trace uploads (serialised
// traces or raw PT captures), keeps them in a byte-budgeted in-memory
// store — or, with -data-dir, durably in an on-disk segment store that
// survives restarts, with the in-memory store as a hot-tier cache —
// and serves analyzer-engine requests with request coalescing, a
// result cache, and Prometheus metrics. With -peers it joins a static
// replica ring: each trace id is owned by the top -replication replicas
// of its rendezvous order (hashing over the content hash), uploads
// write through to all owners, and requests sent to any replica are
// proxied transparently to the first live owner — the fleet keeps
// answering through single-node loss, and a background repair loop
// re-replicates data and tombstones to rejoining peers.
//
//	memgazed -addr :8080 -data-dir /var/lib/memgazed -workers 8 -timeout 30s
//	memgazed -addr :8081 -advertise 127.0.0.1:8081 -peers 127.0.0.1:8081,127.0.0.1:8082 -replication 2
//
//	curl -X POST --data-binary @pr.mgt -H 'Content-Type: application/x-memgaze-trace' localhost:8080/v1/traces
//	curl -T pr.mgt --no-buffer -H 'Content-Type: application/x-memgaze-trace' localhost:8080/v1/traces:stream
//	curl -X POST -d '{"analyses":["functions","mrc"]}' localhost:8080/v1/traces/<id>/analyze
//	curl localhost:8080/metrics
//
// SIGTERM (or SIGINT) drains in-flight requests before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	memgaze "github.com/memgaze/memgaze-go"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "memgazed: %v\n", err)
		os.Exit(1)
	}
}

// splitPeers parses the -peers flag: comma-separated addresses, blanks
// dropped so trailing commas and spacing are forgiven.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// run starts the service and blocks until the listener fails or ctx is
// cancelled (SIGTERM/SIGINT); on cancellation it drains in-flight
// requests before returning. Split from main so tests can drive the
// full lifecycle.
func run(ctx context.Context, args []string, logw io.Writer) error {
	fs := flag.NewFlagSet("memgazed", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address (host:port; port 0 picks an ephemeral port)")
	storeBudget := fs.Int64("store-budget", 256<<20, "trace store byte budget (LRU eviction over it; < 0 unbounded)")
	resultCache := fs.Int64("result-cache", 64<<20, "result cache byte budget (< 0 disables)")
	workers := fs.Int("workers", 0, "concurrent analysis jobs (0 = GOMAXPROCS)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request analysis timeout (expiry answers 504)")
	maxUpload := fs.Int64("max-upload", 256<<20, "maximum upload body bytes (enforced mid-stream on chunked uploads)")
	buildWorkers := fs.Int("build-workers", 0, "samples decoded concurrently per PT-capture upload (0 = GOMAXPROCS)")
	streamChunk := fs.Int("stream-chunk", 0, "read granularity of streamed uploads in bytes (0 = 256 KiB); peak streamed-build memory is O(stream-chunk × build-workers)")
	dataDir := fs.String("data-dir", "", "durable trace storage directory: uploads write through to an on-disk segment store and survive restarts (empty = in-memory only)")
	peers := fs.String("peers", "", "comma-separated static replica set (advertise addresses, this replica included); each trace id is owned by its top -replication replicas via rendezvous hashing and requests proxy transparently to the first live owner (empty = a cluster of one that owns every trace)")
	advertise := fs.String("advertise", "", "this replica's own address exactly as listed in -peers (required with -peers)")
	replication := fs.Int("replication", 2, "replicas owning each trace: uploads fan out to this many owners and reads fail over among them (clamped to the peer count; at 1 a down owner answers peer_unavailable, as no other owner holds the trace; only with -peers)")
	repairInterval := fs.Duration("repair-interval", 30*time.Second, "anti-entropy repair period: each round re-replicates under-replicated traces and propagates tombstones to rejoined peers (< 0 disables; only with -peers and -replication > 1)")
	drain := fs.Duration("drain", 10*time.Second, "shutdown drain grace for in-flight requests")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h/-help: usage already printed, clean exit
		}
		return err
	}

	srv, err := memgaze.NewServer(memgaze.ServerConfig{
		StoreBudgetBytes: *storeBudget,
		ResultCacheBytes: *resultCache,
		Workers:          *workers,
		RequestTimeout:   *timeout,
		MaxUploadBytes:   *maxUpload,
		BuildWorkers:     *buildWorkers,
		StreamChunkBytes: *streamChunk,
		DataDir:          *dataDir,
		Peers:            splitPeers(*peers),
		Advertise:        *advertise,
		Replication:      *replication,
		RepairInterval:   *repairInterval,
	})
	if err != nil {
		return err
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "memgazed: listening on %s\n", ln.Addr())

	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintf(logw, "memgazed: draining (grace %v)\n", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(dctx); err != nil {
			hs.Close()
			return fmt.Errorf("drain: %w", err)
		}
		<-errc // http.ErrServerClosed
		fmt.Fprintf(logw, "memgazed: drained, exiting\n")
		return nil
	}
}
