// Package framebuflife implements the steervet analyzer that machine-checks
// the FrameBuf reference protocol (DESIGN.md §4.1, CHANGES.md PR 4): every
// path through a function must leave each *core.FrameBuf it touches with a
// balanced reference count. The pass abstractly interprets each function
// body — branching state at if/for/switch/select, checking every exit (early
// return, explicit panic, fall-off) — and reports:
//
//   - Retain without a matching Release on some path (the leak a benchmark
//     only sees as pool-miss noise)
//   - Release of a reference the function does not hold (double-Release,
//     releasing a borrowed caller reference)
//   - use of a buffer after its last held reference was released
//   - a retained buffer escaping into a store (field, slice element, channel,
//     composite) without a documented ownership transfer
//
// Ownership vocabulary (see package analysis): a *FrameBuf parameter is
// borrowed — the caller's reference outlives the call and the function's net
// delta must be zero. //steer:consumes declares the function discharges
// exactly one caller reference per path (Session.fanout). //steer:owns
// declares the function or interface method stores retained references and
// manages its own release path (frameRing.push, clientConn.stashCtrl). A call
// returning *FrameBuf transfers one owned reference to the caller, which
// must be released, stored under //steer:owns, or returned onward.
//
// The pass is deliberately biased against false positives: values with
// unanalyzable provenance (slice elements, struct fields, type assertions,
// aliased or closure-captured variables) drop out of tracking rather than
// guess, and a merge of paths that disagree about a variable stops tracking
// it. What remains flagged is wrong with high confidence.
package framebuflife

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the framebuflife pass.
var Analyzer = &analysis.Analyzer{
	Name: "framebuflife",
	Doc:  "FrameBuf Retain/Release must balance on every path",
	Run:  run,
}

func run(pass *analysis.Pass) {
	for _, pkg := range pass.Module.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				w := &walker{pass: pass, pkg: pkg, ann: pass.Module.AnnotationOf(fn)}
				w.analyze(fd.Body, fn.Type().(*types.Signature))
			}
			// Function literals are analyzed as functions in their own right:
			// their own acquisitions and parameters are checked, while
			// variables captured from the enclosing function were already
			// dropped from the outer walk at the capture site.
			ast.Inspect(file, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				sig, ok := pkg.Info.Types[lit].Type.(*types.Signature)
				if !ok {
					return true
				}
				w := &walker{pass: pass, pkg: pkg}
				w.analyze(lit.Body, sig)
				return true
			})
		}
	}
}

// vstate is the abstract state of one tracked *FrameBuf variable.
type vstate struct {
	borrowed bool // parameter: the caller holds the baseline reference
	delta    int  // references this function holds beyond the baseline
	deferred int  // pending `defer v.Release()` discharges
	released bool // our last reference is gone; further touches are bugs
	escaped  bool // a held reference was stored somewhere that outlives us
	dead     bool // tracking abandoned (alias, capture, merge conflict)
}

func (v *vstate) clone() *vstate { c := *v; return &c }

// state maps each tracked variable to its abstract state on the current path.
type state map[*types.Var]*vstate

func (st state) clone() state {
	c := make(state, len(st))
	for k, v := range st {
		c[k] = v.clone()
	}
	return c
}

// walker interprets one function body.
type walker struct {
	pass *analysis.Pass
	pkg  *analysis.Package
	ann  analysis.Annotation

	brks []*[]state // break-target collectors, innermost last
	cnts []*[]state // continue-target collectors
}

func (w *walker) report(pos token.Pos, format string, args ...any) {
	w.pass.Reportf(pos, format, args...)
}

func (w *walker) analyze(body *ast.BlockStmt, sig *types.Signature) {
	st := make(state)
	track := func(p *types.Var) {
		if p != nil && p.Name() != "" && p.Name() != "_" && isFrameBufPtr(p.Type()) {
			st[p] = &vstate{borrowed: true}
		}
	}
	track(sig.Recv())
	for i := 0; i < sig.Params().Len(); i++ {
		track(sig.Params().At(i))
	}
	out := w.stmt(st, body)
	if out != nil {
		w.exit(out, body.Rbrace, false)
	}
}

// ---- statements ----

// stmt interprets s in st and returns the fall-through state, or nil when
// control cannot fall through.
func (w *walker) stmt(st state, s ast.Stmt) state {
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, sub := range s.List {
			if st = w.stmt(st, sub); st == nil {
				return nil
			}
		}
		return st

	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if isPanic(w.pkg.Info, call) {
				for _, a := range call.Args {
					w.expr(st, a)
				}
				w.exit(st, call.Pos(), true)
				return nil
			}
			w.call(st, call)
			// A dropped *FrameBuf result is a leaked reference on the spot.
			if t := w.pkg.Info.Types[call].Type; t != nil && isFrameBufPtr(t) {
				w.report(call.Pos(), "result of call is an owned *FrameBuf reference but is dropped")
			}
			return st
		}
		w.expr(st, s.X)
		return st

	case *ast.AssignStmt:
		w.assign(st, s)
		return st

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						w.defineFrom(st, name, vs.Values[i])
					}
				}
			}
		}
		return st

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if v := w.trackedVar(st, r); v != nil {
				w.returnTransfer(st, v, r.Pos())
			} else {
				w.expr(st, r)
			}
		}
		w.exit(st, s.Pos(), false)
		return nil

	case *ast.IfStmt:
		if s.Init != nil {
			if st = w.stmt(st, s.Init); st == nil {
				return nil
			}
		}
		w.expr(st, s.Cond)
		thenOut := w.stmt(st.clone(), s.Body)
		elseOut := st
		if s.Else != nil {
			elseOut = w.stmt(st.clone(), s.Else)
		}
		return merge(thenOut, elseOut)

	case *ast.ForStmt:
		if s.Init != nil {
			if st = w.stmt(st, s.Init); st == nil {
				return nil
			}
		}
		if s.Cond != nil {
			w.expr(st, s.Cond)
		}
		var brk, cnt []state
		w.brks = append(w.brks, &brk)
		w.cnts = append(w.cnts, &cnt)
		bodyOut := w.stmt(st.clone(), s.Body)
		w.brks = w.brks[:len(w.brks)-1]
		w.cnts = w.cnts[:len(w.cnts)-1]
		for _, c := range cnt {
			bodyOut = merge(bodyOut, c)
		}
		if bodyOut != nil && s.Post != nil {
			bodyOut = w.stmt(bodyOut, s.Post)
		}
		var out state
		if s.Cond != nil {
			out = merge(st, bodyOut) // zero or more iterations
		}
		for _, b := range brk {
			out = merge(out, b)
		}
		return out

	case *ast.RangeStmt:
		w.expr(st, s.X)
		var brk, cnt []state
		w.brks = append(w.brks, &brk)
		w.cnts = append(w.cnts, &cnt)
		bodyOut := w.stmt(st.clone(), s.Body)
		w.brks = w.brks[:len(w.brks)-1]
		w.cnts = w.cnts[:len(w.cnts)-1]
		for _, c := range cnt {
			bodyOut = merge(bodyOut, c)
		}
		out := merge(st, bodyOut)
		for _, b := range brk {
			out = merge(out, b)
		}
		return out

	case *ast.SwitchStmt:
		if s.Init != nil {
			if st = w.stmt(st, s.Init); st == nil {
				return nil
			}
		}
		if s.Tag != nil {
			w.expr(st, s.Tag)
		}
		return w.caseBodies(st, s.Body, func(c *ast.CaseClause, cs state) {
			for _, e := range c.List {
				w.expr(cs, e)
			}
		})

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			if st = w.stmt(st, s.Init); st == nil {
				return nil
			}
		}
		// `x := y.(type)` — interpret y; per-case implicit vars stay
		// untracked (type-assertion provenance).
		switch a := s.Assign.(type) {
		case *ast.AssignStmt:
			for _, r := range a.Rhs {
				w.expr(st, r)
			}
		case *ast.ExprStmt:
			w.expr(st, a.X)
		}
		return w.caseBodies(st, s.Body, func(*ast.CaseClause, state) {})

	case *ast.SelectStmt:
		var brk []state
		w.brks = append(w.brks, &brk)
		var outs []state
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			cs := st.clone()
			live := cs
			if comm.Comm != nil {
				live = w.stmt(cs, comm.Comm)
			}
			if live != nil {
				live = w.stmt(live, &ast.BlockStmt{List: comm.Body})
			}
			outs = append(outs, live)
		}
		w.brks = w.brks[:len(w.brks)-1]
		outs = append(outs, brk...)
		if len(s.Body.List) == 0 {
			return nil // select{} blocks forever
		}
		return merge(outs...)

	case *ast.SendStmt:
		w.expr(st, s.Chan)
		if v := w.trackedVar(st, s.Value); v != nil {
			w.escape(st, v, s.Value.Pos(), "sent on a channel")
		} else {
			w.expr(st, s.Value)
		}
		return st

	case *ast.DeferStmt:
		if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" && len(s.Call.Args) == 0 {
			if v := w.trackedVar(st, sel.X); v != nil {
				st[v].deferred++
				return st
			}
		}
		// Any other defer touching tracked values runs at an exit we cannot
		// order; stop tracking what it references.
		w.killReferenced(st, s.Call)
		return st

	case *ast.GoStmt:
		// The goroutine uses its operands concurrently; ownership is no
		// longer path-local.
		w.killReferenced(st, s.Call)
		return st

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				killAll(st)
			}
			if n := len(w.brks); n > 0 {
				*w.brks[n-1] = append(*w.brks[n-1], st.clone())
			}
			return nil
		case token.CONTINUE:
			if s.Label != nil {
				killAll(st)
			}
			if n := len(w.cnts); n > 0 {
				*w.cnts[n-1] = append(*w.cnts[n-1], st.clone())
			}
			return nil
		case token.GOTO:
			killAll(st)
			return nil
		case token.FALLTHROUGH:
			// The next case body re-checks nothing for this path; be
			// conservative and stop tracking.
			killAll(st)
			if n := len(w.brks); n > 0 {
				*w.brks[n-1] = append(*w.brks[n-1], st.clone())
			}
			return nil
		}
		return st

	case *ast.LabeledStmt:
		return w.stmt(st, s.Stmt)

	case *ast.IncDecStmt:
		w.expr(st, s.X)
		return st

	case *ast.EmptyStmt:
		return st
	}
	return st
}

// caseBodies interprets a switch body: each case from a copy of st, merged
// with breaks and — absent a default — the no-match fall-through.
func (w *walker) caseBodies(st state, body *ast.BlockStmt, caseExprs func(*ast.CaseClause, state)) state {
	var brk []state
	w.brks = append(w.brks, &brk)
	var outs []state
	hasDefault := false
	for _, cl := range body.List {
		c, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if c.List == nil {
			hasDefault = true
		}
		cs := st.clone()
		caseExprs(c, cs)
		outs = append(outs, w.stmt(cs, &ast.BlockStmt{List: c.Body}))
	}
	w.brks = w.brks[:len(w.brks)-1]
	outs = append(outs, brk...)
	if !hasDefault {
		outs = append(outs, st)
	}
	return merge(outs...)
}

// assign interprets an assignment: acquisitions, aliasing, escapes through
// stores, and overwrites of tracked variables.
func (w *walker) assign(st state, a *ast.AssignStmt) {
	// Tuple form: fb, err := f().
	if len(a.Lhs) > 1 && len(a.Rhs) == 1 {
		if call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr); ok {
			w.call(st, call)
			if tuple, ok := w.pkg.Info.Types[call].Type.(*types.Tuple); ok && tuple.Len() == len(a.Lhs) {
				for i, lhs := range a.Lhs {
					if isFrameBufPtr(tuple.At(i).Type()) {
						w.acquire(st, lhs)
					}
				}
			}
			return
		}
	}
	if len(a.Lhs) != len(a.Rhs) {
		for _, r := range a.Rhs {
			w.expr(st, r)
		}
		return
	}
	for i, rhs := range a.Rhs {
		lhs := a.Lhs[i]
		// Tracked value on the right: alias or store.
		if v := w.trackedVar(st, rhs); v != nil {
			if isLocalIdent(w.pkg.Info, lhs) {
				// Aliasing splits the facts across two names; stop tracking.
				st[v].dead = true
			} else {
				w.escape(st, v, rhs.Pos(), "stored to "+types.ExprString(lhs))
				w.useLhs(st, lhs)
			}
			continue
		}
		w.defineFrom(st, lhs, rhs)
	}
}

// defineFrom handles `lhs = rhs` where rhs is not a tracked variable:
// acquisition when rhs yields a fresh *FrameBuf reference, otherwise a plain
// interpretation of both sides.
func (w *walker) defineFrom(st state, lhs, rhs ast.Expr) {
	w.expr(st, rhs)
	if t := w.pkg.Info.Types[ast.Unparen(rhs)].Type; t != nil && isFrameBufPtr(t) && isAcquisition(rhs) {
		if isLocalIdent(w.pkg.Info, lhs) {
			w.acquire(st, lhs)
			return
		}
		// A fresh reference stored straight into a non-local slot: the store
		// is its own release path only under //steer:owns.
		if !w.ann.Owns {
			w.report(rhs.Pos(), "freshly acquired *FrameBuf stored to %s without //steer:owns on the enclosing function", types.ExprString(lhs))
		}
		return
	}
	w.useLhs(st, lhs)
	if v, oldTracked := w.overwritten(st, lhs); oldTracked {
		if v.delta > 0 && !v.escaped {
			w.report(lhs.Pos(), "overwrites a variable still holding %d *FrameBuf reference(s)", v.delta)
		}
		v.dead = true
	}
}

// acquire begins tracking lhs as an owned, freshly referenced buffer.
func (w *walker) acquire(st state, lhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := w.pkg.Info.Defs[id]
	if obj == nil {
		obj = w.pkg.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if old := st[v]; old != nil && !old.dead && old.delta > 0 && !old.escaped && !old.released {
		w.report(lhs.Pos(), "overwrites a variable still holding %d *FrameBuf reference(s)", old.delta)
	}
	st[v] = &vstate{delta: 1}
}

// overwritten reports whether lhs names a tracked variable being replaced.
func (w *walker) overwritten(st state, lhs ast.Expr) (*vstate, bool) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil, false
	}
	v, ok := w.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return nil, false
	}
	vs := st[v]
	if vs == nil || vs.dead {
		return nil, false
	}
	return vs, true
}

// useLhs interprets the non-written parts of an assignment target (fb.b = x
// is a use of fb).
func (w *walker) useLhs(st state, lhs ast.Expr) {
	if _, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		return
	}
	w.expr(st, lhs)
}

// ---- expressions ----

// expr interprets e for reference events.
func (w *walker) expr(st state, e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		w.call(st, e)
	case *ast.ParenExpr:
		w.expr(st, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if v := w.trackedVar(st, e.X); v != nil {
				// &fb: anything can happen through the pointer.
				st[v].dead = true
				return
			}
		}
		w.expr(st, e.X)
	case *ast.StarExpr:
		w.expr(st, e.X)
	case *ast.SelectorExpr:
		if v := w.trackedVar(st, e.X); v != nil {
			w.use(st, v, e.Pos())
			return
		}
		w.expr(st, e.X)
	case *ast.BinaryExpr:
		w.expr(st, e.X)
		w.expr(st, e.Y)
	case *ast.IndexExpr:
		w.expr(st, e.X)
		w.expr(st, e.Index)
	case *ast.SliceExpr:
		w.expr(st, e.X)
	case *ast.TypeAssertExpr:
		w.expr(st, e.X)
	case *ast.KeyValueExpr:
		w.expr(st, e.Value)
	case *ast.CompositeLit:
		w.composite(st, e)
	case *ast.FuncLit:
		// Captured tracked variables now have an unanalyzable second user;
		// the literal's own body is analyzed separately in run.
		w.killReferenced(st, e)
	}
}

// composite interprets a composite literal: tracked elements escape into the
// new value.
func (w *walker) composite(st state, cl *ast.CompositeLit) {
	for _, elt := range cl.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		if v := w.trackedVar(st, val); v != nil {
			w.escape(st, v, val.Pos(), "stored in a composite literal")
			continue
		}
		w.expr(st, val)
	}
}

// call interprets a call: Retain/Release on tracked receivers, consuming
// callees, appends that capture, and plain borrows.
func (w *walker) call(st state, call *ast.CallExpr) {
	// fb.Retain() / fb.Release() / fb.Other().
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if v := w.trackedVar(st, sel.X); v != nil {
			if s, ok := w.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				switch sel.Sel.Name {
				case "Retain":
					w.retain(st, v, call.Pos())
				case "Release":
					w.release(st, v, call.Pos(), "")
				default:
					w.use(st, v, call.Pos())
				}
			} else {
				w.use(st, v, call.Pos())
			}
			for _, a := range call.Args {
				w.expr(st, a)
			}
			return
		}
	}

	// append(s, fb): the element lives on in the slice.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.pkg.Info.Uses[id].(*types.Builtin); ok {
			if b.Name() == "append" {
				for i, a := range call.Args {
					if v := w.trackedVar(st, a); v != nil && i > 0 {
						w.escape(st, v, a.Pos(), "appended to a slice")
						continue
					}
					w.expr(st, a)
				}
				return
			}
			for _, a := range call.Args {
				w.expr(st, a)
			}
			return
		}
	}

	callee := analysis.FuncFor(w.pkg.Info, call)
	var calleeAnn analysis.Annotation
	if callee != nil {
		calleeAnn = w.pass.Module.AnnotationOf(callee)
	}
	w.expr(st, call.Fun)
	for _, a := range call.Args {
		if v := w.trackedVar(st, a); v != nil {
			switch {
			case calleeAnn.Consumes:
				w.release(st, v, a.Pos(), " (consumed by "+analysis.FuncName(callee)+")")
			default:
				// Plain borrow — //steer:owns callees retain internally and
				// are checked on their own definition.
				w.use(st, v, a.Pos())
			}
			continue
		}
		w.expr(st, a)
	}
}

// ---- events ----

func (w *walker) retain(st state, v *types.Var, pos token.Pos) {
	vs := st[v]
	if vs.dead {
		return
	}
	if vs.released {
		w.report(pos, "Retain of %s after its last reference was released", v.Name())
		vs.dead = true
		return
	}
	vs.delta++
}

// release discharges one held reference. floor is 0 for owned values and
// plain borrows (releasing the caller's reference is a bug) and -1 for
// borrows in a //steer:consumes function.
func (w *walker) release(st state, v *types.Var, pos token.Pos, how string) {
	vs := st[v]
	if vs.dead {
		return
	}
	if vs.released {
		w.report(pos, "Release of %s after its last reference was already released (double release)%s", v.Name(), how)
		vs.dead = true
		return
	}
	floor := 0
	consuming := vs.borrowed && w.ann.Consumes
	if consuming {
		floor = -1
	}
	if vs.delta-1 < floor {
		if vs.borrowed {
			w.report(pos, "releases the caller's reference to %s%s; Retain first or annotate this function //steer:consumes", v.Name(), how)
		} else {
			w.report(pos, "releases a reference to %s it does not hold%s", v.Name(), how)
		}
		vs.dead = true
		return
	}
	vs.delta--
	if vs.delta == floor && (consuming || !vs.borrowed) {
		vs.released = true
	}
}

func (w *walker) use(st state, v *types.Var, pos token.Pos) {
	vs := st[v]
	if vs.dead {
		return
	}
	if vs.released {
		w.report(pos, "use of %s after its last reference was released", v.Name())
		vs.dead = true
	}
}

// escape records that a held reference to v was stored beyond this function.
func (w *walker) escape(st state, v *types.Var, pos token.Pos, how string) {
	vs := st[v]
	if vs.dead {
		return
	}
	if vs.released {
		w.report(pos, "%s %s after its last reference was released", v.Name(), how)
		vs.dead = true
		return
	}
	if w.ann.Owns {
		vs.escaped = true
		return
	}
	if vs.delta > 0 {
		vs.escaped = true
		return
	}
	w.report(pos, "%s %s without a held reference; Retain first, or annotate the storing API //steer:owns", v.Name(), how)
	vs.dead = true
}

// returnTransfer hands one held reference to the caller.
func (w *walker) returnTransfer(st state, v *types.Var, pos token.Pos) {
	vs := st[v]
	if vs.dead {
		return
	}
	if vs.released {
		w.report(pos, "returns %s after its last reference was released", v.Name())
		vs.dead = true
		return
	}
	if vs.delta >= 1 {
		vs.delta--
		return
	}
	if vs.borrowed {
		w.report(pos, "returns borrowed %s without an owned reference to transfer; Retain before returning", v.Name())
		vs.dead = true
	}
}

// exit checks every tracked variable at a function exit.
func (w *walker) exit(st state, pos token.Pos, isPanic bool) {
	for v, vs := range st {
		if vs.dead {
			continue
		}
		for vs.deferred > 0 && !vs.dead && !vs.released {
			vs.deferred--
			w.release(st, v, pos, " (deferred)")
		}
		if vs.dead {
			continue
		}
		expected := 0
		if vs.borrowed && w.ann.Consumes {
			expected = -1
		}
		d := vs.delta
		if isPanic {
			if !vs.borrowed && d > 0 && !vs.escaped {
				w.report(pos, "panic path leaks %d reference(s) to %s", d, v.Name())
			}
			continue
		}
		if d > expected {
			switch {
			case vs.escaped && w.ann.Owns:
				// Documented ownership transfer.
			case vs.escaped:
				w.report(pos, "%s escapes with %d retained reference(s); annotate the storing API //steer:owns or Release before storing", v.Name(), d-expected)
			case vs.borrowed && w.ann.Consumes:
				w.report(pos, "path ends without consuming the caller's reference to %s (//steer:consumes requires exactly one Release per path)", v.Name())
			case vs.borrowed:
				w.report(pos, "path ends holding %d extra reference(s) to borrowed %s (missing Release)", d, v.Name())
			default:
				w.report(pos, "path leaks %d reference(s) to %s (missing Release)", d, v.Name())
			}
		}
	}
}

// ---- helpers ----

// trackedVar resolves e to a live tracked variable, or nil.
func (w *walker) trackedVar(st state, e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := w.pkg.Info.Uses[id].(*types.Var)
	if !ok {
		return nil
	}
	if vs := st[v]; vs != nil && !vs.dead {
		return v
	}
	return nil
}

// killReferenced stops tracking every variable referenced under n.
func (w *walker) killReferenced(st state, n ast.Node) {
	ast.Inspect(n, func(sub ast.Node) bool {
		id, ok := sub.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := w.pkg.Info.Uses[id].(*types.Var); ok {
			if vs := st[v]; vs != nil {
				vs.dead = true
			}
		}
		return true
	})
}

func killAll(st state) {
	for _, vs := range st {
		vs.dead = true
	}
}

// merge joins path states; disagreements about a variable end its tracking
// (the no-false-positive bias).
func merge(outs ...state) state {
	var res state
	for _, out := range outs {
		if out == nil {
			continue
		}
		if res == nil {
			res = out
			continue
		}
		for v, vs := range out {
			prev, ok := res[v]
			if !ok {
				res[v] = vs
				continue
			}
			if prev.dead || vs.dead ||
				prev.delta != vs.delta || prev.released != vs.released ||
				prev.deferred != vs.deferred || prev.borrowed != vs.borrowed {
				prev.dead = true
				continue
			}
			prev.escaped = prev.escaped || vs.escaped
		}
	}
	return res
}

// isLocalIdent reports whether e is a plain identifier naming a
// function-local variable (not a field, global, or blank).
func isLocalIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return false
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return false
	}
	return !v.IsField() && v.Parent() != v.Pkg().Scope()
}

// isAcquisition reports whether rhs mints a fresh reference: a call (the
// convention: *FrameBuf-returning calls transfer one reference) or
// &FrameBuf{...}. Type assertions, selectors, and index expressions have
// unknown provenance and stay untracked.
func isAcquisition(rhs ast.Expr) bool {
	switch e := ast.Unparen(rhs).(type) {
	case *ast.CallExpr:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	}
	return false
}

// isFrameBufPtr reports whether t is *core.FrameBuf.
func isFrameBufPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "FrameBuf" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/core")
}

// isPanic reports whether call invokes the panic builtin.
func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
