package analysis_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tictac/internal/analysis/detrand"
	"tictac/internal/analysis/errcode"
	"tictac/internal/analysis/framework"
	"tictac/internal/analysis/hotpathalloc"
	"tictac/internal/analysis/lockdiscipline"
	"tictac/internal/analysis/registryhygiene"
)

var allAnalyzers = []*framework.Analyzer{
	detrand.Analyzer,
	hotpathalloc.Analyzer,
	lockdiscipline.Analyzer,
	errcode.Analyzer,
	registryhygiene.Analyzer,
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// TestVetToolCleanOverRepo builds cmd/tictaclint and runs it the way CI
// does — `go vet -vettool=... ./...` — asserting the tree carries zero
// unwaived diagnostics.
func TestVetToolCleanOverRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the vet tool and loads every package; skipped with -short")
	}
	root := repoRoot(t)
	tool := filepath.Join(t.TempDir(), "tictaclint")

	build := exec.Command("go", "build", "-o", tool, "./cmd/tictaclint")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building tictaclint: %v\n%s", err, out)
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = root
	var stderr bytes.Buffer
	vet.Stderr = &stderr
	if err := vet.Run(); err != nil {
		t.Fatalf("go vet -vettool reported diagnostics (%v):\n%s", err, stderr.String())
	}
}

// mutation is one synthetic regression: applied as a parse-time overlay
// (the tree itself is untouched), it must wake up exactly the analyzer
// that guards against it.
type mutation struct {
	name     string
	pattern  string // package to load
	file     string // repo-relative file to mutate
	old, new string
	analyzer string
	want     string // substring of the expected diagnostic
}

var mutations = []mutation{
	{
		// The cache once seeded shard selection with maphash.MakeSeed under
		// a waiver. There is no waiver left to delete, so the case puts the
		// per-process seed back without one.
		name:     "detrand/deleting-maphash-waiver",
		pattern:  "tictac/internal/cache",
		file:     "internal/cache/cache.go",
		old:      "\t\"sync/atomic\"\n)\n",
		new:      "\t\"sync/atomic\"\n\t\"hash/maphash\"\n)\n\nvar seed = maphash.MakeSeed()\n",
		analyzer: "detrand",
		want:     "maphash.MakeSeed",
	},
	{
		name:    "detrand/reintroducing-map-order-append",
		pattern: "tictac/internal/trace",
		file:    "internal/trace/trace.go",
		old:     "enc := json.NewEncoder(w)",
		new: "for d := range devices {\n\t\tout = append(out, d)\n\t}\n" +
			"\tenc := json.NewEncoder(w)",
		analyzer: "detrand",
		want:     "map iteration order",
	},
	{
		name:     "hotpathalloc/sprintf-in-dispatch",
		pattern:  "tictac/internal/sim",
		file:     "internal/sim/runner.go",
		old:      "dur := p.Costs[id]",
		new:      "dur := p.Costs[id]\n\t_ = fmt.Sprintf(\"dispatch %d\", id)",
		analyzer: "hotpathalloc",
		want:     "fmt.Sprintf allocates",
	},
	{
		name:     "lockdiscipline/dropping-lock-in-get",
		pattern:  "tictac/internal/cache",
		file:     "internal/cache/cache.go",
		old:      "\tc.mu.Lock()\n\tdefer c.mu.Unlock()\n\tif e, ok := c.entries[key]; ok && e.complete {",
		new:      "\tif e, ok := c.entries[key]; ok && e.complete {",
		analyzer: "lockdiscipline",
		want:     "EvictionPolicy.Touch",
	},
	{
		name:     "errcode/literal-code-string",
		pattern:  "tictac/internal/service",
		file:     "internal/service/http.go",
		old:      "codeErr(http.StatusNotFound, CodeNotFound,",
		new:      `codeErr(http.StatusNotFound, "not_found",`,
		analyzer: "errcode",
		want:     "Code* constant",
	},
	{
		name:     "registryhygiene/registration-outside-init",
		pattern:  "tictac/internal/cache",
		file:     "internal/cache/policy.go",
		old:      "func init() {",
		new:      "func lateSetup() {",
		analyzer: "registryhygiene",
		want:     "outside func init",
	},
}

// TestMutationsAreCaught applies each synthetic regression as an overlay
// and asserts the owning analyzer fires — i.e. removing any waiver or
// reintroducing any fixed violation makes the lint gate fail.
func TestMutationsAreCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks real packages repeatedly; skipped with -short")
	}
	root := repoRoot(t)
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(root, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(src, []byte(m.old)) {
				t.Fatalf("%s no longer contains %q; update this mutation", m.file, m.old)
			}
			mutated := bytes.Replace(src, []byte(m.old), []byte(m.new), 1)

			diags := runOn(t, root, m.pattern, map[string][]byte{path: mutated})
			var hit bool
			for _, d := range diags {
				if d.Analyzer == m.analyzer && strings.Contains(d.Message, m.want) {
					hit = true
				}
			}
			if !hit {
				t.Fatalf("mutation not caught: want a %s diagnostic containing %q, got %v",
					m.analyzer, m.want, diags)
			}

			// The unmutated package must be clean, so the diagnostic above is
			// attributable to the mutation alone.
			if clean := runOn(t, root, m.pattern, nil); len(clean) != 0 {
				t.Fatalf("unmutated %s is not clean: %v", m.pattern, clean)
			}
		})
	}
}

func runOn(t *testing.T, root, pattern string, overlay map[string][]byte) []framework.Diagnostic {
	t.Helper()
	pkgs, err := framework.Load(framework.LoadConfig{Dir: root, Overlay: overlay}, pattern)
	if err != nil {
		t.Fatalf("loading %s: %v", pattern, err)
	}
	var diags []framework.Diagnostic
	for _, pkg := range pkgs {
		ds, err := framework.RunAnalyzers(pkg, allAnalyzers)
		if err != nil {
			t.Fatalf("running analyzers on %s: %v", pkg.ImportPath, err)
		}
		diags = append(diags, ds...)
	}
	return diags
}
