package repro_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
				src, err := os.ReadFile(filepath.Join(fields[0], "main.go"))
				if err != nil {
					t.Errorf("%s: command %s: %v", row, fields[0], err)
					continue
				}
				for _, f := range fields[1:] {
					name := strings.TrimLeft(f, "-")
					if !regexp.MustCompile(`flag\.\w+\("` + regexp.QuoteMeta(name) + `"`).Match(src) {
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
