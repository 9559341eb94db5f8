package ebsn

// This file enforces the documentation contract mechanically: every
// audited package must carry a package comment, and every exported
// identifier in it — functions, methods, types, and const/var
// declarations — must have a doc comment. It covers the same ground as
// staticcheck's ST1000/ST1020/ST1021 in CI, duplicated here so
// `go test ./...` catches a regression even where staticcheck is not
// installed. Struct fields are deliberately out of scope (matching
// staticcheck): DTO field meaning lives in the type comment and json
// tags, and fields whose semantics are subtle carry comments by
// convention, not mechanical force.
//
// The same walk pins the exported surface: every exported identifier of
// apiPackages, with its signature (and, for structs, its exported
// fields — each one is a knob), is listed in testdata/api.golden, so
// adding, removing or re-typing a name is a reviewed line in the diff.
// `go test -run TestExportedAPIMatchesGolden -update .` regenerates it.

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/api.golden from the source")

// apiPackages lists the directories whose exported surface is pinned by
// testdata/api.golden: the facade, the serving layer, and the two
// internal packages the benchmark compiles against.
var apiPackages = []string{".", "serve", "internal/ta", "internal/engine"}

const apiGolden = "testdata/api.golden"

// auditedPackages lists the directories (relative to the repo root)
// whose exported API must be fully documented. New packages should be
// added here as they stabilize.
var auditedPackages = []string{
	".",
	"serve",
	"internal/obs",
	"internal/isort",
	"internal/par",
	"internal/vecmath",
	"internal/ta",
	"internal/engine",
	"internal/workload",
}

// parseLibrary parses dir's non-test, non-main packages.
func parseLibrary(t *testing.T, dir string) (*token.FileSet, []*ast.Package) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var out []*ast.Package
	for name, pkg := range pkgs {
		if name != "main" {
			out = append(out, pkg)
		}
	}
	return fset, out
}

func TestExportedIdentifiersAreDocumented(t *testing.T) {
	for _, dir := range auditedPackages {
		t.Run(dir, func(t *testing.T) {
			fset, pkgs := parseLibrary(t, dir)
			for _, pkg := range pkgs {
				for _, miss := range auditPackage(fset, pkg) {
					t.Error(miss)
				}
			}
		})
	}
}

func TestExportedAPIMatchesGolden(t *testing.T) {
	var lines []string
	for _, dir := range apiPackages {
		fset, pkgs := parseLibrary(t, dir)
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					for _, l := range apiDecl(fset, decl) {
						lines = append(lines, dir+": "+l)
					}
				}
			}
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		have[l] = true
	}
	for _, l := range lines {
		if !have[l] {
			t.Errorf("not in %s: %s", apiGolden, l)
		}
		delete(have, l)
	}
	for l := range have {
		if l != "" {
			t.Errorf("gone from the source: %s", l)
		}
	}
	t.Errorf("exported API differs from %s; review the change, then rerun with -update", apiGolden)
}

// apiDecl renders the exported identifiers one declaration introduces,
// one line each: functions and methods with their signatures, types
// with their definition (structs and interfaces member by member),
// consts and vars by name.
func apiDecl(fset *token.FileSet, decl ast.Decl) []string {
	src := func(n any) string {
		var buf bytes.Buffer
		printer.Fprint(&buf, fset, n)
		return strings.Join(strings.Fields(buf.String()), " ")
	}
	var out []string
	members := func(owner string, list *ast.FieldList) {
		for _, fld := range list.List {
			if len(fld.Names) == 0 {
				out = append(out, owner+" embeds "+src(fld.Type))
			}
			for _, n := range fld.Names {
				if n.IsExported() {
					out = append(out, owner+"."+n.Name+" "+src(fld.Type))
				}
			}
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && exportedRecv(d) {
			out = append(out, src(&ast.FuncDecl{Recv: d.Recv, Name: d.Name, Type: d.Type}))
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				switch tt := s.Type.(type) {
				case *ast.StructType:
					out = append(out, "type "+s.Name.Name+" struct")
					members("field "+s.Name.Name, tt.Fields)
				case *ast.InterfaceType:
					out = append(out, "type "+s.Name.Name+" interface")
					members("method "+s.Name.Name, tt.Methods)
				default:
					out = append(out, "type "+src(&ast.TypeSpec{Name: s.Name, Assign: s.Assign, Type: s.Type}))
				}
			case *ast.ValueSpec:
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, d.Tok.String()+" "+n.Name)
					}
				}
			}
		}
	}
	return out
}

// auditPackage returns one message per documentation gap in pkg:
// a missing package comment, or an exported declaration (function,
// method, type, const/var group, struct field) without a doc comment.
func auditPackage(fset *token.FileSet, pkg *ast.Package) []string {
	var missing []string
	hasPkgDoc := false
	for _, f := range pkg.Files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
		}
		for _, decl := range f.Decls {
			missing = append(missing, auditDecl(fset, decl)...)
		}
	}
	if !hasPkgDoc {
		missing = append(missing, fmt.Sprintf("package %s has no package comment (ST1000)", pkg.Name))
	}
	return missing
}

func auditDecl(fset *token.FileSet, decl ast.Decl) []string {
	var missing []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	badForm := func(pos token.Pos, kind, name string, doc *ast.CommentGroup) {
		if !docStartsWithName(doc, name) {
			p := fset.Position(pos)
			missing = append(missing, fmt.Sprintf("%s:%d: comment on exported %s %s should be of the form %q", p.Filename, p.Line, kind, name, name+" ..."))
		}
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && exportedRecv(d) {
			if d.Doc == nil {
				report(d.Pos(), "function", d.Name.Name)
			} else {
				badForm(d.Pos(), "function", d.Name.Name, d.Doc)
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				switch {
				case s.Doc != nil:
					badForm(s.Pos(), "type", s.Name.Name, s.Doc)
				case d.Doc != nil && len(d.Specs) == 1:
					badForm(s.Pos(), "type", s.Name.Name, d.Doc)
				case d.Doc == nil:
					report(s.Pos(), "type", s.Name.Name)
				}
			case *ast.ValueSpec:
				// A group comment on the const/var block covers its
				// members, matching godoc's rendering.
				if d.Doc != nil || s.Doc != nil || s.Comment != nil {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						report(n.Pos(), "const/var", n.Name)
					}
				}
			}
		}
	}
	return missing
}

// docStartsWithName mirrors ST1020/ST1021's form rule: the comment's
// first word must be the identifier it documents (a leading article
// "A", "An" or "The" is tolerated, as staticcheck does).
func docStartsWithName(doc *ast.CommentGroup, name string) bool {
	words := strings.Fields(doc.Text())
	if len(words) == 0 {
		return false
	}
	if (words[0] == "A" || words[0] == "An" || words[0] == "The") && len(words) > 1 {
		return words[1] == name
	}
	return words[0] == name
}

// exportedRecv reports whether a method's receiver type is exported
// (methods on unexported types never surface in godoc).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}
