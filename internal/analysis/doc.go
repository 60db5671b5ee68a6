// Package analysis is the root of tictac's custom static-analysis suite:
// a stdlib-only go/analysis-style framework (framework), the //tictac:*
// annotation grammar (directive), a fixture test harness (analysistest),
// and five analyzers enforcing contracts the code comments previously only
// stated:
//
//   - detrand: no wall clocks / global RNG in determinism-contract packages
//   - hotpathalloc: no allocation-causing constructs in //tictac:hotpath code
//   - lockdiscipline: eviction policies and guarded fields only under the mutex
//   - errcode: service error codes constant-declared and documented
//   - registryhygiene: name tables use non-empty, lowercase, unique names
//
// The analyzers run through cmd/tictaclint (`make lint-internal`, or
// `go vet -vettool=bin/tictaclint ./...`). See docs/static-analysis.md.
package analysis
