// Command tictacd is the TicTac scheduling service: a long-running
// HTTP/JSON daemon that computes transfer schedules and what-if simulations
// on demand, with a request-coalescing cache under the handlers.
//
// Usage:
//
//	tictacd -addr :8080
//
// Endpoints: POST /v1/schedule, POST /v1/simulate, POST /v1/batch,
// GET /v1/policies, GET /healthz, GET /metrics. See docs/service.md for the
// API reference, cache semantics and the determinism contract, and
// cmd/tictac-load for the load generator that checks a running daemon.
package main

import "os"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
