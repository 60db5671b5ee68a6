package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// LoadConfig parameterizes Load.
type LoadConfig struct {
	// Dir is where `go list` runs (it must be inside the module); ""
	// means the current directory.
	Dir string
	// Overlay substitutes file contents by absolute path: the package's
	// file list still comes from disk, but a file present in the overlay
	// is parsed from the given bytes instead, and `go list` sees the same
	// bytes, so an overlay may add imports. The e2e tests use it to
	// reintroduce violations without touching the tree.
	Overlay map[string][]byte
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
}

// Load resolves patterns with `go list -export -deps`, then parses and
// type-checks every matched (non-dependency) package against the export
// data the go toolchain produced for its imports. It needs no network and
// no third-party modules: the gc importer consumes the build cache.
func Load(cfg LoadConfig, patterns ...string) ([]*Package, error) {
	args := []string{
		"list", "-export", "-deps",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly",
	}
	if len(cfg.Overlay) > 0 {
		dir, err := os.MkdirTemp("", "tictaclint-overlay")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		spec, err := writeOverlay(dir, cfg.Overlay)
		if err != nil {
			return nil, err
		}
		args = append(args, "-overlay", spec)
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Dir = cfg.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %w", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			cp := p
			targets = append(targets, &cp)
		}
	}

	fset := token.NewFileSet()
	imp := ExportImporter(fset, func(path string) (string, bool) {
		f, ok := exports[path]
		return f, ok
	})
	var pkgs []*Package
	for _, t := range targets {
		var files []*ast.File
		for _, name := range t.GoFiles {
			full := name
			if !strings.HasPrefix(full, "/") {
				full = t.Dir + "/" + name
			}
			f, err := parseMaybeOverlay(fset, full, cfg.Overlay)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		tpkg, info, err := TypeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
		}
		pkgs = append(pkgs, &Package{
			ImportPath: t.ImportPath,
			Name:       t.Name,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Types:      tpkg,
			Info:       info,
		})
	}
	return pkgs, nil
}

// writeOverlay writes overlay into dir in the form `go list -overlay`
// reads and returns the path of its JSON spec.
func writeOverlay(dir string, overlay map[string][]byte) (string, error) {
	replace := make(map[string]string, len(overlay))
	for path, src := range overlay {
		file := filepath.Join(dir, fmt.Sprintf("%d.go", len(replace)))
		if err := os.WriteFile(file, src, 0o600); err != nil {
			return "", err
		}
		replace[path] = file
	}
	spec, err := json.Marshal(struct{ Replace map[string]string }{replace})
	if err != nil {
		return "", err
	}
	file := filepath.Join(dir, "overlay.json")
	return file, os.WriteFile(file, spec, 0o600)
}

func parseMaybeOverlay(fset *token.FileSet, filename string, overlay map[string][]byte) (*ast.File, error) {
	var src any
	if b, ok := overlay[filename]; ok {
		src = b
	}
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, fmt.Errorf("parsing %s: %w", filename, err)
	}
	return f, nil
}

// ExportImporter returns a gc-export-data importer whose lookup resolves an
// import path to an export file (as produced by `go list -export` or named
// in a vet.cfg PackageFile map).
func ExportImporter(fset *token.FileSet, resolve func(path string) (string, bool)) types.Importer {
	return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := resolve(path)
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// TypeCheck type-checks one package's parsed files, returning the package
// and the filled-in types.Info every analyzer reads.
func TypeCheck(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}
