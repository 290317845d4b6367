// Package analysis is a stdlib-only harness for the steervet analyzers: a
// deliberately small subset of the golang.org/x/tools/go/analysis shape
// (Analyzer, Pass, Diagnostic) plus a module loader built on go/parser,
// go/types and go/importer, so the suite runs in a network-less, stdlib-only
// checkout. The analyzers machine-check the broadcast hot path's
// hand-maintained invariants (DESIGN.md §4.1): FrameBuf reference balance,
// allocation- and lock-freedom of //steer:hotpath functions, and
// atomics-only access to atomically-shared fields.
//
// # Annotations
//
// The analyzers read `//steer:` directive comments from declaration doc
// comments (directives, like //go: comments, have no space after the
// slashes):
//
//   - //steer:hotpath — this function is a root of the allocation- and
//     lock-free broadcast domain; hotpathalloc checks it and every
//     same-module function statically reachable from it.
//   - //steer:coldpath — this function is asserted off the steady-state
//     path; hotpathalloc does not descend into it even when a hotpath
//     function calls it (the call site documents why).
//   - //steer:owns — this function or interface method takes ownership of
//     the retained FrameBuf references it stores: framebuflife permits its
//     *FrameBuf parameters to be retained and escape, because the owning
//     component documents its own release path (frameRing.push).
//   - //steer:consumes — this function consumes the caller's reference to
//     each *FrameBuf parameter (Session.fanout): every path must discharge
//     exactly one caller reference, and framebuflife debits callers at the
//     call site.
//
// A finding that is understood and sanctioned is suppressed with a
// `//steer:allow <analyzer>[ reason]` comment on the offending line or on
// the line directly above it; the reason is the reviewable justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one steervet pass. Run receives the whole loaded module — the
// invariants here are module-global (an atomically-accessed field must not
// be read plainly anywhere, a hot path spans packages), so unlike
// x/tools/go/analysis the unit of work is the module, not the package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries the loaded module and collects diagnostics for one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module

	diags []Diagnostic
}

// Reportf records a finding unless a //steer:allow suppression covers its
// line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Module.allowed(p.Analyzer.Name, pos) {
		return
	}
	p.diags = append(p.diags, Diagnostic{Pos: pos, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings recorded so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// Package is one loaded, type-checked module package with syntax.
type Package struct {
	Path  string
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Module is the loaded analysis unit: every package of the repository,
// parsed and type-checked, plus the directive-annotation and suppression
// index the analyzers share.
type Module struct {
	Path string // module path from go.mod
	Root string // module root directory
	Fset *token.FileSet
	Pkgs []*Package

	ann         map[types.Object]Annotation
	allows      map[string]map[int][]string // filename → line → allowed analyzer names
	allowRanges map[string][]allowRange     // filename → case-clause spans with allows
}

// allowRange is a //steer:allow placed on a case/comm clause line: the
// suppression covers the whole clause body, so one allow documents a
// control-plane branch inside a hot-path switch.
type allowRange struct {
	start, end int // line span, inclusive
	name       string
}

// Annotation is the set of steer: directives on one declaration.
type Annotation struct {
	Hotpath  bool
	Coldpath bool
	Owns     bool
	Consumes bool
}

// Run executes the analyzers over the module and returns their findings in
// file/position order.
func (m *Module) Run(analyzers ...*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Module: m}
		a.Run(pass)
		diags = append(diags, pass.diags...)
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := m.Fset.Position(diags[i].Pos), m.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags
}

// AnnotationOf returns the steer: directives attached to obj's declaration
// (function, method, or interface method).
func (m *Module) AnnotationOf(obj types.Object) Annotation {
	if obj == nil {
		return Annotation{}
	}
	m.buildIndex()
	return m.ann[obj]
}

// allowed reports whether a //steer:allow for analyzer name covers pos
// (same line or the line directly above).
func (m *Module) allowed(name string, pos token.Pos) bool {
	m.buildIndex()
	p := m.Fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, a := range m.allows[p.Filename][line] {
			if a == name {
				return true
			}
		}
	}
	for _, r := range m.allowRanges[p.Filename] {
		if r.name == name && p.Line >= r.start && p.Line <= r.end {
			return true
		}
	}
	return false
}

// buildIndex scans every file once for steer: directives: declaration
// annotations keyed by types.Object, and per-line allow suppressions.
func (m *Module) buildIndex() {
	if m.ann != nil {
		return
	}
	m.ann = make(map[types.Object]Annotation)
	m.allows = make(map[string]map[int][]string)
	m.allowRanges = make(map[string][]allowRange)
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			m.indexFile(pkg, file)
		}
	}
}

func (m *Module) indexFile(pkg *Package, file *ast.File) {
	// Suppressions: every comment anywhere in the file.
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			rest, ok := directive(c.Text, "allow")
			if !ok {
				continue
			}
			name := rest
			if i := strings.IndexAny(rest, " \t"); i >= 0 {
				name = rest[:i]
			}
			if name == "" {
				continue
			}
			p := m.Fset.Position(c.Pos())
			byLine := m.allows[p.Filename]
			if byLine == nil {
				byLine = make(map[int][]string)
				m.allows[p.Filename] = byLine
			}
			byLine[p.Line] = append(byLine[p.Line], name)
		}
	}
	// An allow on a case/comm clause line widens to the whole clause.
	if byLine := m.allows[m.Fset.Position(file.Pos()).Filename]; len(byLine) > 0 {
		fname := m.Fset.Position(file.Pos()).Filename
		ast.Inspect(file, func(n ast.Node) bool {
			var body []ast.Stmt
			switch c := n.(type) {
			case *ast.CaseClause:
				body = c.Body
			case *ast.CommClause:
				body = c.Body
			default:
				return true
			}
			start := m.Fset.Position(n.Pos()).Line
			end := m.Fset.Position(n.End()).Line
			if len(body) > 0 {
				end = m.Fset.Position(body[len(body)-1].End()).Line
			}
			for _, name := range byLine[start] {
				m.allowRanges[fname] = append(m.allowRanges[fname], allowRange{start: start, end: end, name: name})
			}
			return true
		})
	}
	// Declaration annotations: function declarations and interface methods.
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if ann, ok := annotationFrom(d.Doc); ok {
				if obj := pkg.Info.Defs[d.Name]; obj != nil {
					m.ann[obj] = ann
				}
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				it, ok := ts.Type.(*ast.InterfaceType)
				if !ok {
					continue
				}
				for _, f := range it.Methods.List {
					ann, ok := annotationFrom(f.Doc)
					if !ok {
						continue
					}
					for _, name := range f.Names {
						if obj := pkg.Info.Defs[name]; obj != nil {
							m.ann[obj] = ann
						}
					}
				}
			}
		}
	}
}

// annotationFrom extracts steer: directives from a doc comment.
func annotationFrom(doc *ast.CommentGroup) (Annotation, bool) {
	var ann Annotation
	any := false
	if doc == nil {
		return ann, false
	}
	for _, c := range doc.List {
		rest, ok := directiveName(c.Text)
		if !ok {
			continue
		}
		switch rest {
		case "hotpath":
			ann.Hotpath, any = true, true
		case "coldpath":
			ann.Coldpath, any = true, true
		case "owns":
			ann.Owns, any = true, true
		case "consumes":
			ann.Consumes, any = true, true
		}
	}
	return ann, any
}

// directive matches a `//steer:<name>` comment and returns the text after
// "steer:<name>", trimmed, when the comment is that directive.
func directive(text, name string) (string, bool) {
	const prefix = "//steer:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if !strings.HasPrefix(rest, name) {
		return "", false
	}
	rest = rest[len(name):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// directiveName returns the bare directive word of a `//steer:<word>`
// comment (ignoring any trailing prose).
func directiveName(text string) (string, bool) {
	const prefix = "//steer:"
	if !strings.HasPrefix(text, prefix) {
		return "", false
	}
	rest := text[len(prefix):]
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "" {
		return "", false
	}
	return rest, true
}

// FuncFor resolves the called function of a call expression, looking through
// parentheses. It returns nil for calls through function values, built-ins
// and type conversions.
func FuncFor(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
		}
		// Package-qualified call (pkg.Func): no selection entry.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// IsInterfaceMethod reports whether f is declared on an interface (so a call
// to it dispatches dynamically).
func IsInterfaceMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// FuncName renders a function for diagnostics: pkg.Func or (*pkg.Type).Method.
func FuncName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, isPtr := t.(*types.Pointer); isPtr {
			t = p.Elem()
			ptr = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return fmt.Sprintf("(%s%s).%s", ptr, named.Obj().Name(), f.Name())
		}
	}
	return f.Name()
}
