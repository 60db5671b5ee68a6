package main

import (
	"context"
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

	"tictac/internal/cache"
	"tictac/internal/fleet"
	"tictac/internal/service"
)

// app holds the parsed command line.
type app struct {
	addr          string
	cacheCapacity int
	cachePolicy   string
	maxBatch      int
	batchJobs     int
	readTimeout   time.Duration
	writeTimeout  time.Duration
	idleTimeout   time.Duration

	fleetMode     bool
	nodeID        string
	peers         string
	probeInterval time.Duration
	hedgeTimeout  time.Duration
	drainTimeout  time.Duration
}

func parseFlags(args []string, stderr io.Writer) (*app, error) {
	a := &app{}
	fs := flag.NewFlagSet("tictacd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&a.addr, "addr", ":8080", "listen address for daemon mode")
	fs.IntVar(&a.cacheCapacity, "cache-capacity", service.DefaultCacheCapacity, "resident entries per cache (clusters, schedules)")
	fs.StringVar(&a.cachePolicy, "cache-policy", cache.LRU, "cache eviction policy ("+strings.Join(cache.Policies(), "|")+")")
	fs.IntVar(&a.maxBatch, "max-batch", service.DefaultMaxBatch, "max variants per /v1/batch request (above = 413 batch_too_large)")
	fs.IntVar(&a.batchJobs, "batch-jobs", 0, "worker-pool width for /v1/batch fan-out (0 = GOMAXPROCS; results are identical at any width)")
	fs.DurationVar(&a.readTimeout, "read-timeout", 30*time.Second, "max duration for reading an entire request including the body (0 = unlimited)")
	fs.DurationVar(&a.writeTimeout, "write-timeout", 30*time.Second, "max duration for writing a response (0 = unlimited)")
	fs.DurationVar(&a.idleTimeout, "idle-timeout", 2*time.Minute, "max keep-alive idle time before a connection is closed (0 = read-timeout)")
	fs.BoolVar(&a.fleetMode, "fleet", false, "run as a fleet member: route each workload to its consistent-hash home node, forward non-owned keys, drain on SIGTERM (see docs/fleet.md)")
	fs.StringVar(&a.nodeID, "node-id", "", "fleet: this node's stable identity (required with -fleet; must appear in -peers)")
	fs.StringVar(&a.peers, "peers", "", "fleet: full membership as id=url,id=url,... including this node")
	fs.DurationVar(&a.probeInterval, "probe-interval", time.Second, "fleet: peer health-probe interval")
	fs.DurationVar(&a.hedgeTimeout, "hedge-timeout", fleet.DefaultHedgeTimeout, "fleet: hedge a forwarded request to the next replica after this long without a response")
	fs.DurationVar(&a.drainTimeout, "drain-timeout", 30*time.Second, "fleet: max time to stream hot cache entries to successors on SIGTERM before exiting anyway")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if _, err := cache.NewPolicy(a.cachePolicy); err != nil {
		fmt.Fprintf(stderr, "tictacd: %v\n", err)
		return nil, err
	}
	if a.fleetMode {
		if _, err := a.fleetNode(); err != nil {
			fmt.Fprintf(stderr, "tictacd: %v\n", err)
			return nil, err
		}
	}
	return a, nil
}

// parsePeers parses the -peers membership list ("id=url,id=url,...").
func parsePeers(s string) ([]fleet.Member, error) {
	var members []fleet.Member
	for _, part := range splitList(s) {
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("-peers: bad entry %q (want id=url)", part)
		}
		members = append(members, fleet.Member{ID: id, URL: strings.TrimRight(url, "/")})
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("-peers is required with -fleet (id=url,id=url,... including this node)")
	}
	return members, nil
}

// fleetNode builds this node's membership/health tracker from the command
// line. Validation (self in peers, no duplicates, >= 2 members) lives in
// fleet.NewNode.
func (a *app) fleetNode() (*fleet.Node, error) {
	if a.nodeID == "" {
		return nil, fmt.Errorf("-node-id is required with -fleet")
	}
	members, err := parsePeers(a.peers)
	if err != nil {
		return nil, err
	}
	return fleet.NewNode(fleet.Config{
		Self:          a.nodeID,
		Members:       members,
		ProbeInterval: a.probeInterval,
	})
}

func (a *app) options() service.Options {
	return service.Options{
		CacheCapacity: a.cacheCapacity,
		CachePolicy:   a.cachePolicy,
		MaxBatch:      a.maxBatch,
		BatchJobs:     a.batchJobs,
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// run executes the command; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	a, err := parseFlags(args, stderr)
	if err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	return a.runDaemon(stdout, stderr)
}

// httpServer builds a hardened server around the handler: header, body,
// write, and idle deadlines so a slow or stalled client cannot pin a
// connection (and its serving goroutine) indefinitely.
func (a *app) httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Addr:              a.addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       a.readTimeout,
		WriteTimeout:      a.writeTimeout,
		IdleTimeout:       a.idleTimeout,
	}
}

// runDaemon serves until SIGINT/SIGTERM, then drains in-flight requests. In
// fleet mode a SIGTERM additionally streams the hot cache to hash successors
// before the listener closes (the graceful half of the failure model; SIGKILL
// exercises the other half and costs only recomputation, never correctness).
func (a *app) runDaemon(stdout, stderr io.Writer) int {
	opts := a.options()
	if a.fleetMode {
		node, err := a.fleetNode()
		if err != nil {
			fmt.Fprintf(stderr, "tictacd: %v\n", err)
			return 2
		}
		opts.Fleet = node
		opts.FleetHedgeTimeout = a.hedgeTimeout
	}
	svc := service.New(opts)
	srv := a.httpServer(svc.Handler())
	ln, err := net.Listen("tcp", a.addr)
	if err != nil {
		fmt.Fprintf(stderr, "tictacd: listen: %v\n", err)
		return 1
	}
	if a.fleetMode {
		probeCtx, stopProbes := context.WithCancel(context.Background())
		defer stopProbes()
		opts.Fleet.Start(probeCtx)
		fmt.Fprintf(stdout, "tictacd: fleet node %q serving on %s (%d peers; POST /v1/drain, GET /v1/fleet)\n",
			a.nodeID, ln.Addr(), len(opts.Fleet.Ring().Members())-1)
	} else {
		fmt.Fprintf(stdout, "tictacd: serving on %s (POST /v1/schedule, POST /v1/simulate, POST /v1/batch, GET /v1/policies, GET /healthz, GET /metrics)\n", ln.Addr())
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "tictacd: %v, shutting down\n", sig)
		if svc.FleetEnabled() && sig == syscall.SIGTERM {
			drainCtx, cancel := context.WithTimeout(context.Background(), a.drainTimeout)
			rep := svc.Drain(drainCtx)
			cancel()
			fmt.Fprintf(stdout, "tictacd: drained %d/%d cache entries to %d peer(s)\n",
				rep.Streamed, rep.Entries, len(rep.Targets))
			for _, e := range rep.Errors {
				fmt.Fprintf(stderr, "tictacd: drain: %s\n", e)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "tictacd: shutdown: %v\n", err)
			return 1
		}
		return 0
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(stderr, "tictacd: %v\n", err)
			return 1
		}
		return 0
	}
}
