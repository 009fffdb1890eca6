package knlmlm

import (
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The documents name only what exists. README.md, DESIGN.md and
// EXPERIMENTS.md describe the tree a reader has checked out, so every
// cmd/<x> and internal/<x> they name is a directory, every root-level
// *.json or *.txt they name in prose is a file, and every directory
// under cmd/ and internal/ has a line in README's tree. A deletion that
// leaves a pointer behind, or a new package nobody introduced, fails
// here.
//
// Two forms are not pointers into the tree and are skipped: a path
// written <commit>:<path>, which is an argument to git show and names
// history on purpose, and a bare file name inside a fenced block, which
// is an output the reader's own command creates.
//
// bench/README.md is outside the scope: it belongs to the benchmark
// (BENCHMARK.json lists bench/ as a path no PR may edit while it is
// being refereed by it), so a PR that deletes something it mentions
// cannot correct it in the same change, and this test would then make
// every such deletion fail. What it names is checked by the PR of the
// benchmark archetype that next edits bench/.

var (
	docDirRef  = regexp.MustCompile(`(^|[^\w:])((?:cmd|internal)/[a-z0-9_]+)`)
	docFileRef = regexp.MustCompile(`(^|[^\w./:<>*-])([\w.-]+\.(?:json|txt))\b`)
	treeEntry  = regexp.MustCompile(`^[│ ]+[├└]── ([a-z0-9_, ]+?)(?:  |$)`)
)

func TestDocsNameOnlyWhatExists(t *testing.T) {
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			for _, m := range docDirRef.FindAllStringSubmatch(line, -1) {
				if st, err := os.Stat(m[2]); err != nil || !st.IsDir() {
					t.Errorf("%s:%d names %s, which is not a directory of this tree", doc, i+1, m[2])
				}
			}
			if fenced {
				continue
			}
			for _, m := range docFileRef.FindAllStringSubmatch(line, -1) {
				if _, err := os.Stat(m[2]); err != nil {
					t.Errorf("%s:%d names %s, which is not a file at the root of this tree", doc, i+1, m[2])
				}
			}
		}
	}
}

func TestReadmeTreeNamesEveryPackage(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	// The tree is the fenced block that opens with the root package; its
	// cmd/ and internal/ branches list one directory (or a comma-separated
	// few) per line, two spaces before the description.
	named := map[string]bool{}
	branch, inTree := "", false
	for _, line := range strings.Split(string(raw), "\n") {
		switch {
		case strings.HasPrefix(line, "knlmlm (root)"):
			inTree = true
		case !inTree:
		case strings.HasPrefix(line, "```"):
			inTree = false
		case strings.HasPrefix(line, "├── ") || strings.HasPrefix(line, "└── "):
			branch = strings.Fields(line)[1]
		default:
			if m := treeEntry.FindStringSubmatch(line); m != nil {
				for _, name := range strings.Split(m[1], ",") {
					named[branch+strings.TrimSpace(name)] = true
				}
			}
		}
	}
	if len(named) == 0 {
		t.Fatal("README.md: no architecture tree found (a fenced block opening with \"knlmlm (root)\")")
	}
	var missing []string
	for _, parent := range []string{"cmd/", "internal/"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() && !named[parent+e.Name()] {
				missing = append(missing, parent+e.Name())
			}
		}
	}
	sort.Strings(missing)
	for _, dir := range missing {
		t.Errorf("README.md's tree has no line for %s", dir)
	}
	for dir := range named {
		if !strings.HasPrefix(dir, "cmd/") && !strings.HasPrefix(dir, "internal/") {
			continue
		}
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			t.Errorf("README.md's tree lists %s, which is not a directory of this tree", dir)
		}
	}
}
