// Command vliwbindd is the binding-as-a-service daemon: a stdlib-only
// net/http JSON server over the vliwbind engine with admission control,
// load shedding, graceful degradation, and a clean SIGTERM/SIGINT
// drain (see internal/server).
//
// Usage:
//
//	vliwbindd -addr :8417 -store-dir /var/lib/vliwbindd
//	vliwbindd -addr 127.0.0.1:0 -addr-file /tmp/vliwbindd.addr
//
// Endpoints: POST /bind (job JSON), GET /healthz, /readyz, /metrics,
// /debug/pprof/. The first SIGTERM/SIGINT starts the drain — admission
// closes, in-flight jobs finish or are degraded within -drain, the
// store journal is flushed and compacted — and the process exits 0; a
// second signal hard-exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"vliwbind"
	"vliwbind/internal/server"
	"vliwbind/internal/sigctx"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, sigctx.Notify(), os.Exit))
}

// realMain runs the daemon. The signal channel and hard-exit function
// are injected so tests drive the full lifecycle in-process.
// Exit codes: 0 clean drain, 1 runtime failure, 2 usage error.
func realMain(args []string, stdout, stderr io.Writer, sigc <-chan os.Signal, hardExit func(int)) int {
	fs := flag.NewFlagSet("vliwbindd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8417", "listen address (host:port; port 0 picks a free port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts and tests)")
	storeDir := fs.String("store-dir", "", "directory for the journal-backed cross-request result store (empty: in-memory only)")
	workers := fs.Int("workers", 0, "concurrent binds (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admitted jobs waiting beyond the workers (0 = 4x workers)")
	par := fs.Int("par", 0, "engine parallelism per bind (0 = GOMAXPROCS)")
	defaultDeadline := fs.Duration("default-deadline", 2*time.Second, "deadline for requests that send no deadline_ms")
	maxDeadline := fs.Duration("max-deadline", 30*time.Second, "cap on client-requested deadlines")
	minBudget := fs.Duration("min-budget", 10*time.Millisecond, "smallest admissible compute budget; shorter deadlines are rejected")
	drain := fs.Duration("drain", 5*time.Second, "drain deadline after the first SIGTERM/SIGINT")
	retries := fs.Int("retries", 1, "server-side retries for transiently failed binds (-1 disables)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "vliwbindd: unexpected arguments: %v\n", fs.Args())
		return 2
	}
	logger := log.New(stderr, "vliwbindd: ", log.LstdFlags)

	var st *vliwbind.ResultStore
	if *storeDir != "" {
		var err error
		st, err = vliwbind.OpenStore(*storeDir)
		if err != nil {
			logger.Printf("open store: %v", err)
			return 1
		}
		defer st.Close()
	}

	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		MinBudget:       *minBudget,
		DrainDeadline:   *drain,
		RequestRetries:  *retries,
		Store:           st, // nil: the server's in-memory default
		Metrics:         vliwbind.NewMetrics(),
		BindOptions:     vliwbind.Options{Parallelism: *par},
		Logf:            logger.Printf,
	})
	if err != nil {
		logger.Printf("%v", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Printf("listen: %v", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			logger.Printf("write addr-file: %v", err)
			ln.Close()
			return 1
		}
	}
	logger.Printf("listening on %s (workers=%d store=%s)", ln.Addr(), srv.Workers(), storeDesc(*storeDir))

	httpSrv := &http.Server{Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	ctx, stop := sigctx.WithSignals(context.Background(), sigc, hardExit)
	defer stop()

	select {
	case err := <-serveErr:
		logger.Printf("serve: %v", err)
		return 1
	case <-ctx.Done():
		logger.Printf("received %v, draining", context.Cause(ctx))
	}

	// Drain sequence: close admission and settle in-flight jobs (the
	// server degrades stragglers onto the audited anytime path), then
	// stop accepting connections and flush everything out.
	code := 0
	if err := srv.Drain(); err != nil {
		logger.Printf("drain: %v", err)
		code = 1
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		logger.Printf("shutdown: %v", err)
		code = 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Printf("serve: %v", err)
		code = 1
	}
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Printf("close store: %v", err)
			code = 1
		}
	}
	logger.Printf("drained, exiting %d", code)
	return code
}

func storeDesc(dir string) string {
	if dir == "" {
		return "memory"
	}
	return dir
}
