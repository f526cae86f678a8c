// Package lint holds tier-1 checks over the module's own source: what
// drifts without anyone seeing it unless a test pins it.
//
//   - TestExportedFuncsHaveCallers: every exported function or method
//     declared under internal/ is referenced by some non-test code, or
//     is listed in testdata/exports_allow.txt. The list may only shrink:
//     a listed name that gained a caller, or no longer exists, fails
//     until it is taken off.
//   - TestPanicCounts: non-test panic calls per package stay at or below
//     testdata/panics.txt, and recover() is called only in internal/team.
//   - TestSourceIsGofmtClean: every non-test .go file under internal/,
//     cmd/ and benchmark/ is what gofmt would write, so a local go test
//     sees what CI's Format step sees.
//   - TestRunPatternsNameTests: every alternative of every -run '…'
//     pattern in .github/workflows/ci.yml and the Makefile matches some
//     test, so a renamed test cannot leave a CI step that runs nothing.
//
// They read the source with the standard library alone (go/parser,
// go/format), so the package needs no dependency and no build of the
// code it checks.
package lint

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// moduleRoot is the directory holding go.mod, two levels above this
// package.
const moduleRoot = "../.."

// srcFile is one parsed .go file of the module.
type srcFile struct {
	dir  string // slash-separated, relative to the module root ("." for the root package)
	test bool   // a _test.go file
	ast  *ast.File
}

// goFiles returns the path of every .go file under the module root,
// skipping testdata and the directories the go tool ignores (leading "."
// or "_").
func goFiles(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(moduleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != moduleRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// relDir is path's directory relative to the module root, slash-separated.
func relDir(t *testing.T, path string) string {
	t.Helper()
	rel, err := filepath.Rel(moduleRoot, filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	return filepath.ToSlash(rel)
}

// parseModule parses every .go file goFiles returns. Build constraints
// are not evaluated: every file counts, whichever target it builds for.
func parseModule(t *testing.T) []srcFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	for _, path := range goFiles(t) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{dir: relDir(t, path), test: strings.HasSuffix(path, "_test.go"), ast: f})
	}
	return files
}

// declName is how the allowlist names a declaration: "pkg.Func" or
// "pkg.(*T).Method" / "pkg.T.Method", pkg being the directory's path
// below internal/.
func declName(dir string, fd *ast.FuncDecl) string {
	pkg := strings.TrimPrefix(dir, "internal/")
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := false
	if s, ok := recv.(*ast.StarExpr); ok {
		star, recv = true, s.X
	}
	switch r := recv.(type) { // strip type parameters
	case *ast.IndexExpr:
		recv = r.X
	case *ast.IndexListExpr:
		recv = r.X
	}
	typ := recv.(*ast.Ident).Name
	if star {
		return pkg + ".(*" + typ + ")." + fd.Name.Name
	}
	return pkg + "." + typ + "." + fd.Name.Name
}

// readList reads a testdata file of one entry per line; "#" starts a
// comment and blank lines are skipped. Each entry is split into fields.
func readList(t *testing.T, name string) [][]string {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out [][]string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line, _, _ := strings.Cut(sc.Text(), "#")
		if fields := strings.Fields(line); len(fields) > 0 {
			out = append(out, fields)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExportedFuncsHaveCallers is a name-based reference check. A
// declaration counts as called when an identifier with its name appears
// in any non-test file of the module (internal/, cmd/, benchmark/, the
// root package, examples/) or in an Example function of a test file,
// outside a declaration of that same name. Names that collide with
// another identifier (a field, a method of another type, the other
// PredictCycles) therefore always count as called, so the check can miss
// dead code. A method that only the standard library calls through an
// interface (a MarshalJSON, say) is reported: list it with that reason.
func TestExportedFuncsHaveCallers(t *testing.T) {
	files := parseModule(t)

	refs := map[string]int{}        // identifier name → references outside its own declarations
	declared := map[string]string{} // allowlist name → identifier name, for exported funcs under internal/
	countIdents := func(n ast.Node, own string) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name != own {
				refs[id.Name]++
			}
			return true
		})
	}
	for _, f := range files {
		for _, d := range f.ast.Decls {
			fd, isFunc := d.(*ast.FuncDecl)
			switch {
			case f.test && isFunc && strings.HasPrefix(fd.Name.Name, "Example"):
				countIdents(fd, fd.Name.Name)
			case f.test:
			case isFunc:
				countIdents(fd, fd.Name.Name)
				if fd.Name.IsExported() && strings.HasPrefix(f.dir, "internal/") {
					declared[declName(f.dir, fd)] = fd.Name.Name
				}
			default:
				countIdents(d, "")
			}
		}
	}

	allowed := map[string]bool{}
	for _, fields := range readList(t, "exports_allow.txt") {
		name := fields[0]
		if allowed[name] {
			t.Errorf("exports_allow.txt lists %s twice", name)
		}
		allowed[name] = true
		switch ident, ok := declared[name]; {
		case !ok:
			t.Errorf("exports_allow.txt lists %s, which is no longer declared: take it off the list", name)
		case refs[ident] > 0:
			t.Errorf("exports_allow.txt lists %s, which now has a caller: take it off the list", name)
		}
	}

	var uncalled []string
	for name, ident := range declared {
		if refs[ident] == 0 && !allowed[name] {
			uncalled = append(uncalled, name)
		}
	}
	sort.Strings(uncalled)
	for _, name := range uncalled {
		t.Errorf("%s is exported but no non-test code calls it: delete it, move it into the tests that use it, or give it an examples/ caller", name)
	}
}

// TestPanicCounts counts panic(...) call expressions in each package's
// non-test files (comments and strings do not count) against
// testdata/panics.txt. A count may fall below its budget but not rise
// above it; a package the table does not name has a budget of zero.
// recover() may be called only in internal/team, the one place where a
// panic on a worker goroutine is carried back to the caller.
func TestPanicCounts(t *testing.T) {
	budget := map[string]int{}
	for _, fields := range readList(t, "panics.txt") {
		n, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil {
			t.Fatalf("panics.txt: want \"<dir> <count>\", got %q", strings.Join(fields, " "))
		}
		budget[fields[0]] = n
	}

	panics := map[string]int{}
	for _, f := range parseModule(t) {
		if f.test {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "panic":
					panics[f.dir]++
				case "recover":
					if f.dir != "internal/team" {
						t.Errorf("%s calls recover(): only internal/team may", f.dir)
					}
				}
			}
			return true
		})
	}

	dirs := make([]string, 0, len(panics))
	for dir := range panics {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if n := panics[dir]; n > budget[dir] {
			t.Errorf("%s has %d panic calls, above its budget of %d in testdata/panics.txt", dir, n, budget[dir])
		}
	}
	for dir, b := range budget {
		if panics[dir] < b {
			t.Logf("%s has %d panic calls, below its budget of %d: lower the budget", dir, panics[dir], b)
		}
	}
}

// TestSourceIsGofmtClean requires every non-test .go file under
// internal/, cmd/ and benchmark/ to be unchanged by go/format.Source,
// which formats as gofmt does.
func TestSourceIsGofmtClean(t *testing.T) {
	for _, path := range goFiles(t) {
		dir := relDir(t, path)
		top, _, _ := strings.Cut(dir, "/")
		if strings.HasSuffix(path, "_test.go") || (top != "internal" && top != "cmd" && top != "benchmark") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := dir + "/" + filepath.Base(path)
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", name, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-clean: run gofmt -w %s", name, name)
		}
	}
}

// runPattern finds the quoted -run patterns of a Makefile or workflow:
// -run 'P' and -run='P'.
var runPattern = regexp.MustCompile(`-run[ =]'([^']*)'`)

// splitTop splits s at every sep outside brackets and parentheses, the
// way go test splits a -run pattern into levels at '/' and a regexp
// splits into alternatives at '|'.
func splitTop(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// TestRunPatternsNameTests requires every '|'-alternative of the top
// level of every quoted -run pattern in .github/workflows/ci.yml and the
// Makefile to match the name of at least one Test, Fuzz, Example or
// Benchmark function of the module. go test runs a pattern that matches
// nothing as "no tests to run" and passes, so without this check a
// renamed test silently drops out of the CI step that names it. The
// pattern "^$" runs no test on purpose and is exempt.
func TestRunPatternsNameTests(t *testing.T) {
	var names []string
	for _, f := range parseModule(t) {
		if !f.test {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				for _, p := range []string{"Test", "Fuzz", "Example", "Benchmark"} {
					if strings.HasPrefix(fd.Name.Name, p) {
						names = append(names, fd.Name.Name)
						break
					}
				}
			}
		}
	}
	checked := 0
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		src, err := os.ReadFile(filepath.Join(moduleRoot, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range runPattern.FindAllStringSubmatch(string(src), -1) {
			for _, alt := range splitTop(splitTop(m[1], '/')[0], '|') {
				if alt == "^$" {
					continue
				}
				checked++
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run '%s': alternative %q: %v", file, m[1], alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s: -run '%s': alternative %q matches no test, fuzz target, example or benchmark", file, m[1], alt)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run pattern: the check would pass vacuously")
	}
}
