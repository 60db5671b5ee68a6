// Package framework is a self-contained, stdlib-only reimplementation of
// the slice of golang.org/x/tools/go/analysis that tictaclint needs: an
// Analyzer/Pass/Diagnostic vocabulary, a package loader fed by
// `go list -export`, and the `go vet -vettool` unit-checker protocol.
//
// The build environment pins dependencies to the standard library, so the
// x/tools module is deliberately not imported; the API mirrors its shape
// (an analyzer written here ports to x/tools by changing one import) while
// staying small: no facts, no suggested fixes, no analyzer dependencies —
// every tictaclint analyzer is intra-package by design (see
// docs/static-analysis.md).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named static check. Run inspects a fully type-checked
// package through the Pass and reports findings via Pass.Report/Reportf.
type Analyzer struct {
	// Name is the diagnostic category and the selector used by -run. It
	// must be a lowercase identifier.
	Name string
	// Doc is the one-paragraph description printed by tictaclint -help.
	Doc string
	// Run executes the check. A returned error aborts the whole run (it
	// means the analyzer itself is broken, not that the code is); findings
	// about the code under analysis are diagnostics, not errors.
	Run func(*Pass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// InTestFile reports whether pos falls in a _test.go file. The tictaclint
// contracts bind non-test code: tests legitimately read clocks, drive
// eviction policies without the cache lock, and register throwaway names,
// so every analyzer in the suite skips test files through this helper.
func (p *Pass) InTestFile(pos token.Pos) bool {
	f := p.Fset.File(pos)
	if f == nil {
		return false
	}
	return strings.HasSuffix(filepath.Base(f.Name()), "_test.go")
}

// PathHasSegment reports whether any slash-separated segment of the import
// path equals one of names. Analyzers scope themselves to contract packages
// with it (e.g. "sim" matches tictac/internal/sim and its subpackage
// tictac/internal/sim/simref, plus a bare "sim" fixture package).
func PathHasSegment(path string, names ...string) bool {
	for seg := range strings.SplitSeq(path, "/") {
		// A vet unit for a test variant carries an ID suffix like
		// "pkg [pkg.test]"; trim it so the segment still matches.
		seg = strings.TrimSuffix(strings.TrimSpace(seg), "_test")
		for _, n := range names {
			if seg == n {
				return true
			}
		}
	}
	return false
}

// RunAnalyzers applies each analyzer to the package and returns the merged
// diagnostics in file/position order. The error reports analyzer failures
// (not findings).
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			report:    func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := pkg.Fset.Position(diags[i].Pos), pkg.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}
