// Package registryhygiene implements the name-table analyzer for the fixed
// name tables: the sched policies, the cache eviction policies and the
// bench experiment catalog. The tables are API surface: the service
// validates request fields against them, /v1/policies and flag help list
// them, and tictac-bench -exp selects from them, so their names must be
// stable lowercase identifiers, unique within their table.
package registryhygiene

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"

	"tictac/internal/analysis/framework"
)

// Analyzer is the registryhygiene analyzer.
var Analyzer = &framework.Analyzer{
	Name: "registryhygiene",
	Doc: `checks that name tables use non-empty, lowercase, unique names

In sched, cache and bench packages, a name table is a slice literal of
structs that pair a string field called name or Name with a func field:
the sched and cache policy tables and the bench experiment catalog
(Experiments). Every constant name in a table must be non-empty,
lowercase and unique within it.`,
	Run: run,
}

func run(pass *framework.Pass) error {
	if !framework.PathHasSegment(pass.Pkg.Path(), "sched", "cache", "bench") {
		return nil
	}
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok {
				if index, field, ok := nameField(pass.TypesInfo.TypeOf(lit)); ok {
					checkTable(pass, lit, index, field)
				}
			}
			return true
		})
	}
	return nil
}

// nameField reports whether t is a name table — a slice of structs with a
// string field called name or Name and at least one func field — and
// returns that field's index and name.
func nameField(t types.Type) (int, string, bool) {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return 0, "", false
	}
	st, ok := sl.Elem().Underlying().(*types.Struct)
	if !ok {
		return 0, "", false
	}
	index, hasFunc := -1, false
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if b, ok := f.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 && (f.Name() == "name" || f.Name() == "Name") {
			index = i
		}
		if _, ok := f.Type().Underlying().(*types.Signature); ok {
			hasFunc = true
		}
	}
	if index < 0 || !hasFunc {
		return 0, "", false
	}
	return index, st.Field(index).Name(), true
}

// checkTable applies the name rules to every row of one table whose name
// is a constant, given by key or by position.
func checkTable(pass *framework.Pass, lit *ast.CompositeLit, index int, field string) {
	seen := map[string]bool{}
	for _, elt := range lit.Elts {
		row, ok := elt.(*ast.CompositeLit)
		if !ok {
			continue
		}
		var val ast.Expr
		for i, e := range row.Elts {
			if kv, ok := e.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok && id.Name == field {
					val = kv.Value
				}
			} else if i == index {
				val = e
			}
		}
		if val == nil {
			continue
		}
		tv := pass.TypesInfo.Types[val]
		if tv.Value == nil || tv.Value.Kind() != constant.String {
			continue
		}
		name := constant.StringVal(tv.Value)
		switch {
		case name == "":
			pass.Reportf(val.Pos(), "table name must be non-empty")
		case name != strings.ToLower(name):
			pass.Reportf(val.Pos(), "table name %q must be lowercase: names are stable request-field values and CLI selectors", name)
		case seen[name]:
			pass.Reportf(val.Pos(), "table name %q is duplicated in its table", name)
		}
		seen[name] = true
	}
}
