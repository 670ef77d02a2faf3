package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// DESIGN.md §4 maps each table and figure of the paper to the targets
// that regenerate it. Every target it names must exist: a Benchmark* or
// Test* function somewhere in the module, or a cmd/<name> command, and
// any -flag written after the command must be one that command defines.
func TestDesignExperimentIndexTargetsExist(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	section := designSection(t, string(raw), "## 4. ")
	funcs := testFuncs(t)

	targets := 0
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) < 5 || strings.HasPrefix(strings.TrimSpace(cells[0]), "---") ||
			strings.TrimSpace(cells[0]) == "ID" {
			continue
		}
		row := strings.TrimSpace(cells[0])
		for _, m := range codeSpan.FindAllStringSubmatch(cells[len(cells)-1], -1) {
			targets++
			target := m[1]
			switch {
			case strings.HasPrefix(target, "Benchmark"), strings.HasPrefix(target, "Test"):
				if !funcs[target] {
					t.Errorf("%s: no function %s in the module", row, target)
				}
			case strings.HasPrefix(target, "cmd/"):
				fields := strings.Fields(target)
				flags, err := cmdFlags(fields[0])
				if err != nil {
					t.Errorf("%s: command %s: %v", row, fields[0], err)
					continue
				}
				for _, f := range fields[1:] {
					if name := strings.TrimLeft(f, "-"); !flags[name] {
						t.Errorf("%s: %s defines no flag -%s", row, fields[0], name)
					}
				}
			default:
				t.Errorf("%s: regeneration target %q is neither a Benchmark/Test function nor a cmd/ command", row, target)
			}
		}
	}
	if targets == 0 {
		t.Fatal("DESIGN.md §4 names no regeneration targets; has the table moved?")
	}
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// The knob tables of DESIGN.md (§7 serve and loadgen, §10 gateway, §13
// train) list every flag of the serving binaries and the trainer, one row
// each, headed by a `iprism-<cmd> -<flag>` cell. The rows must match the
// flags the commands define, both ways, and every test a row names as the
// evidence that the value changes behaviour must exist.
func TestDesignKnobTablesMatchFlags(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncs(t)
	row := regexp.MustCompile("^\\| `(iprism-(?:serve|gateway|loadgen|train)) -([a-z0-9-]+)` \\|")
	listed := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		m := row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		knob := m[1] + " -" + m[2]
		if listed[knob] {
			t.Errorf("DESIGN.md lists %s twice", knob)
		}
		listed[knob] = true
		cells := strings.Split(strings.Trim(line, "| "), "|")
		if len(cells) != 4 {
			t.Errorf("%s: row has %d cells, want 4 (knob, default, set by, behaviour test)", knob, len(cells))
			continue
		}
		for _, span := range codeSpan.FindAllStringSubmatch(cells[3], -1) {
			if name := span[1]; (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Benchmark")) && !funcs[name] {
				t.Errorf("%s: no function %s in the module", knob, name)
			}
		}
	}

	defined := map[string]bool{}
	for _, cmd := range []string{"iprism-serve", "iprism-gateway", "iprism-loadgen", "iprism-train"} {
		flags, err := cmdFlags(filepath.Join("cmd", cmd))
		if err != nil {
			t.Fatal(err)
		}
		for name := range flags {
			defined[cmd+" -"+name] = true
		}
	}
	for _, knob := range sortedKeys(defined) {
		if !listed[knob] {
			t.Errorf("flag %s has no DESIGN.md knob-table row", knob)
		}
	}
	for _, knob := range sortedKeys(listed) {
		if !defined[knob] {
			t.Errorf("DESIGN.md knob table lists %s, which the command does not define", knob)
		}
	}
}

// cmdFlags returns the flags a command directory's non-test sources define:
// the first string literal passed to a flag-package call (flag.String,
// fs.Duration, flag.IntVar, ...) on the package itself or on a FlagSet
// named fs.
func cmdFlags(dir string) (map[string]bool, error) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, pkg := range pkgs {
		ast.Inspect(pkg, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name == "NewFlagSet" {
				return true
			}
			if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, err := strconv.Unquote(lit.Value)
					if err == nil {
						out[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return out, nil
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// designSection returns the text of the DESIGN.md section whose heading
// starts with prefix, up to the next second-level heading.
func designSection(t *testing.T, doc, prefix string) string {
	t.Helper()
	start := strings.Index(doc, "\n"+prefix)
	if start < 0 {
		t.Fatalf("DESIGN.md has no %q section", prefix)
	}
	rest := doc[start+1:]
	if end := strings.Index(rest[len(prefix):], "\n## "); end >= 0 {
		return rest[:len(prefix)+end]
	}
	return rest
}

// testFuncs returns the names of every Benchmark* and Test* function in
// the module's test files, perfbench/ included.
func testFuncs(t *testing.T) map[string]bool {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Benchmark|Test)\w*)\(`)
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllSubmatch(src, -1) {
			out[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
