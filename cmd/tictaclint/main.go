// Command tictaclint is the repo's custom static-analysis suite, built on
// the stdlib-only framework in internal/analysis. It machine-checks the
// contracts the code comments only state: determinism (detrand), hot-path
// allocation discipline (hotpathalloc), cache locking (lockdiscipline),
// error-code documentation (errcode) and registry shape (registryhygiene).
//
// Run it as a go vet tool so package loading, caching and test-file
// merging come from the go command:
//
//	go build -o bin/tictaclint ./cmd/tictaclint
//	go vet -vettool=bin/tictaclint ./...
//
// or standalone on package patterns:
//
//	bin/tictaclint ./internal/cache ./internal/sim
//
// See docs/static-analysis.md for the analyzer catalog and the
// //tictac:* annotation grammar.
package main

import (
	"tictac/internal/analysis/detrand"
	"tictac/internal/analysis/errcode"
	"tictac/internal/analysis/framework"
	"tictac/internal/analysis/hotpathalloc"
	"tictac/internal/analysis/lockdiscipline"
	"tictac/internal/analysis/registryhygiene"
)

func main() {
	framework.Main(
		detrand.Analyzer,
		hotpathalloc.Analyzer,
		lockdiscipline.Analyzer,
		errcode.Analyzer,
		registryhygiene.Analyzer,
	)
}
