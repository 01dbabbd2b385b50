// Command doclint enforces the repository's godoc standard: every exported
// top-level declaration (and the package clause itself) in the checked
// packages must carry a doc comment. go vet accepts silent exports; this
// repository does not — the package docs are the architecture record
// (internal/engine sets the bar), so an undocumented export is a review
// failure, caught here in CI rather than in review.
//
// It also keeps the comments honest about the documents they cite: a comment
// naming a Markdown file (README.md, docs/FORMAT.md, …) that does not exist
// in the repository is a finding, so a citation cannot outlive — or predate —
// its document.
//
// Usage:
//
//	doclint [dir ...]        (default: ./internal/... equivalent walk)
//
// Run it from the module root. Each dir is walked recursively; _test.go files
// and testdata directories are skipped. Exits 1 listing every finding as
// file:line.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

func main() {
	roots := os.Args[1:]
	if len(roots) == 0 {
		roots = []string{"internal"}
	}
	docs, err := markdownFiles(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "doclint:", err)
		os.Exit(2)
	}
	var bad []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			findings, err := lintFile(path, docs)
			if err != nil {
				return err
			}
			bad = append(bad, findings...)
			return nil
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "doclint:", err)
			os.Exit(2)
		}
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Println(b)
		}
		fmt.Fprintf(os.Stderr, "doclint: %d findings\n", len(bad))
		os.Exit(1)
	}
}

// markdownFiles lists every Markdown file under root, slash-separated and
// relative to it.
func markdownFiles(root string) ([]string, error) {
	var docs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			docs = append(docs, filepath.ToSlash(path))
		}
		return nil
	})
	return docs, err
}

// mdMention matches a Markdown file name, with any directories written
// before it, inside a comment.
var mdMention = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// docExists reports whether a cited name is one of docs, or the tail of one
// at a directory boundary ("FORMAT.md" cites docs/FORMAT.md).
func docExists(name string, docs []string) bool {
	name = strings.TrimPrefix(name, "./")
	for _, d := range docs {
		if d == name || strings.HasSuffix(d, "/"+name) {
			return true
		}
	}
	return false
}

// lintFile parses one file and returns a finding per undocumented export and
// per comment citing a Markdown file that is not in docs.
func lintFile(path string, docs []string) ([]string, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, what))
	}
	for _, group := range f.Comments {
		for _, c := range group.List {
			for _, name := range mdMention.FindAllString(c.Text, -1) {
				if !docExists(name, docs) {
					report(c.Pos(), "comment cites "+name+", which is not in the repository")
				}
			}
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			// Methods count when the receiver type is exported: an exported
			// method on an unexported type is still reachable through
			// interfaces and deserves a doc, so no receiver exemption.
			report(d.Pos(), "exported "+funcKind(d)+" "+d.Name.Name+" has no doc comment")
		case *ast.GenDecl:
			lintGenDecl(d, report)
		}
	}
	return out, nil
}

// lintGenDecl reports undocumented exported consts, vars, and types. A doc
// on the grouped decl covers its specs (the standard const-block idiom);
// within an undocumented group, each exported spec needs its own comment.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "exported type "+s.Name.Name+" has no doc comment")
			}
		case *ast.ValueSpec:
			if d.Doc != nil || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), "exported "+kindWord(d.Tok)+" "+name.Name+" has no doc comment")
				}
			}
		}
	}
}

// funcKind distinguishes methods from functions in findings.
func funcKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// kindWord renders the decl keyword for a finding message.
func kindWord(tok token.Token) string {
	if tok == token.CONST {
		return "const"
	}
	return "var"
}
