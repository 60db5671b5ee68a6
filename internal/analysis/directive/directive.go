// Package directive parses the //tictac: comment annotations that scope
// tictaclint's analyzers (see docs/static-analysis.md for the grammar):
//
//	//tictac:hotpath
//	    The function below must not allocate (hotpathalloc).
//	//tictac:nondeterministic <reason>
//	    The declaration below may read clocks or process-global randomness
//	    (detrand waiver; the reason is mandatory).
//	//tictac:locked
//	    The function below requires its caller to hold the relevant
//	    lock (lockdiscipline treats the body as locked, and checks that
//	    callers hold a lock).
//	//tictac:guardedby <field>
//	    The struct field below may only be accessed with the named sibling
//	    mutex field held (lockdiscipline).
//
// Directives attach to the declaration whose doc comment contains them,
// exactly like //go: directives.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

// Prefix is the comment prefix all tictaclint directives share.
const Prefix = "//tictac:"

// Canonical directive names.
const (
	Hotpath          = "hotpath"
	Nondeterministic = "nondeterministic"
	Locked           = "locked"
	GuardedBy        = "guardedby"
)

// Directive is one parsed //tictac: line.
type Directive struct {
	// Name is the word after the colon ("hotpath", "nondeterministic", …).
	Name string
	// Args is the rest of the line, space-trimmed ("" when absent).
	Args string
	// Pos locates the directive comment itself.
	Pos token.Pos
}

// Parse extracts the directives from a comment group (a declaration's Doc
// or a field's Doc/Comment). A nil group parses to nil.
func Parse(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, Prefix)
		if !ok {
			continue
		}
		name, args, _ := strings.Cut(rest, " ")
		out = append(out, Directive{
			Name: strings.TrimSpace(name),
			Args: strings.TrimSpace(args),
			Pos:  c.Pos(),
		})
	}
	return out
}

// Find returns the first directive with the given name in the group, if
// any.
func Find(cg *ast.CommentGroup, name string) (Directive, bool) {
	for _, d := range Parse(cg) {
		if d.Name == name {
			return d, true
		}
	}
	return Directive{}, false
}

// HasOnDecl reports whether the declaration's doc comment carries the named
// directive, returning it.
func HasOnDecl(decl ast.Decl, name string) (Directive, bool) {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		return Find(d.Doc, name)
	case *ast.GenDecl:
		return Find(d.Doc, name)
	}
	return Directive{}, false
}

// EnclosingWaiver walks file-level declarations for the one spanning pos
// and reports the named directive on it (or on the file's package doc).
// Used by detrand: a waiver on the enclosing func/var/const declaration —
// or, for package-wide exemptions, on the package clause — silences the
// ban for everything inside it.
func EnclosingWaiver(file *ast.File, pos token.Pos, name string) (Directive, bool) {
	for _, decl := range file.Decls {
		if decl.Pos() <= pos && pos <= decl.End() {
			if d, ok := HasOnDecl(decl, name); ok {
				return d, true
			}
		}
	}
	return Find(file.Doc, name)
}
