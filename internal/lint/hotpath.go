package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AnalyzerHotpath enforces the allocation-free contract on functions
// annotated //soar:hotpath.
//
// Inside a hotpath function the analyzer flags every allocating
// construct: make/new, map and slice composite literals, &composite
// literals, closures and method values (unless passed to an allowlisted
// callee), interface boxing at calls/assignments/returns, non-constant
// string concatenation, string<->[]byte conversions, go statements,
// defer and panic. Calls are checked transitively over the module call
// graph by contract: a module callee must itself be annotated
// //soar:hotpath (so its body is checked in turn), and a stdlib callee
// must be on the small known-non-allocating allowlist.
//
// Two escape hatches keep the contract honest rather than aspirational:
// a statement (or a block, via its opening-brace line) under a
// //soar:coldpath comment is skipped — growth, rebuild and eviction
// branches — and an if-body ending in panic() is skipped automatically,
// since allocations on the way to a crash are irrelevant.
var AnalyzerHotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "allocating constructs or un-annotated calls in //soar:hotpath functions",
	Run:  runHotpath,
}

// hotpathStdlib is the allowlist of stdlib functions a hotpath may
// call: synchronization leaves, in-place sorts and clock reads, all
// non-allocating on the steady state.
var hotpathStdlib = map[string]bool{
	"sync.Mutex.Lock":       true,
	"sync.Mutex.Unlock":     true,
	"sync.Mutex.TryLock":    true,
	"sync.RWMutex.Lock":     true,
	"sync.RWMutex.Unlock":   true,
	"sync.RWMutex.RLock":    true,
	"sync.RWMutex.RUnlock":  true,
	"sync.Once.Do":          true,
	"sync.Pool.Get":         true,
	"sync.Pool.Put":         true,
	"sync.WaitGroup.Add":    true,
	"sync.WaitGroup.Done":   true,
	"sync.WaitGroup.Wait":   true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"time.Now":              true,
	"time.Since":            true,
	"time.Duration.Seconds": true,
	"time.Time.Sub":         true,
	"time.Time.UnixNano":    true,
}

// stdlibAllowed reports whether a non-module callee is allowlisted.
func stdlibAllowed(sym string) bool {
	return hotpathStdlib[sym] ||
		strings.HasPrefix(sym, "math.") ||
		strings.HasPrefix(sym, "math/bits.") ||
		strings.HasPrefix(sym, "sync/atomic.")
}

func runHotpath(p *Pass) {
	notes := p.Module.Notes
	for _, f := range p.Unit.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := p.Unit.Info.Defs[fd.Name].(*types.Func)
			sym := symbolOf(obj)
			if _, hot := notes.Hotpath[sym]; !hot {
				continue
			}
			hc := &hotChecker{p: p, fname: fd.Name.Name}
			if sig, ok := obj.Type().(*types.Signature); ok {
				hc.sigs = append(hc.sigs, sig)
			}
			hc.stmt(fd.Body)
		}
	}
}

type hotChecker struct {
	p     *Pass
	fname string
	// sigs is the enclosing-function signature stack, for return-value
	// boxing checks inside nested FuncLits.
	sigs []*types.Signature
}

func (hc *hotChecker) reportf(pos token.Pos, format string, args ...any) {
	args = append(args, hc.fname)
	hc.p.Reportf(pos, format+" in //soar:hotpath function %s", args...)
}

// cold reports whether a //soar:coldpath waiver covers the statement.
func (hc *hotChecker) cold(s ast.Stmt) bool {
	return hc.p.Module.Notes.ColdAt(hc.p.Module.Fset.Position(s.Pos()))
}

func (hc *hotChecker) stmt(s ast.Stmt) {
	if s == nil {
		return
	}
	if hc.cold(s) {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			hc.stmt(st)
		}
	case *ast.IfStmt:
		hc.stmt(s.Init)
		hc.expr(s.Cond)
		if !guardPanic(s.Body) {
			hc.stmt(s.Body)
		}
		hc.stmt(s.Else)
	case *ast.ForStmt:
		hc.stmt(s.Init)
		hc.expr(s.Cond)
		hc.stmt(s.Post)
		hc.stmt(s.Body)
	case *ast.RangeStmt:
		hc.expr(s.X)
		hc.stmt(s.Body)
	case *ast.AssignStmt:
		hc.assign(s)
	case *ast.ExprStmt:
		hc.expr(s.X)
	case *ast.IncDecStmt:
		hc.expr(s.X)
	case *ast.ReturnStmt:
		hc.ret(s)
	case *ast.SendStmt:
		hc.expr(s.Chan)
		hc.expr(s.Value)
	case *ast.DeferStmt:
		hc.reportf(s.Pos(), "defer")
		hc.call(s.Call)
	case *ast.GoStmt:
		hc.reportf(s.Pos(), "go statement (spawns a goroutine)")
		hc.call(s.Call)
	case *ast.SwitchStmt:
		hc.stmt(s.Init)
		hc.expr(s.Tag)
		hc.stmt(s.Body)
	case *ast.TypeSwitchStmt:
		hc.stmt(s.Init)
		hc.stmt(s.Assign)
		hc.stmt(s.Body)
	case *ast.SelectStmt:
		hc.stmt(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			hc.expr(e)
		}
		for _, st := range s.Body {
			hc.stmt(st)
		}
	case *ast.CommClause:
		hc.stmt(s.Comm)
		for _, st := range s.Body {
			hc.stmt(st)
		}
	case *ast.LabeledStmt:
		hc.stmt(s.Stmt)
	case *ast.DeclStmt:
		hc.declStmt(s)
	}
}

// guardPanic reports whether the block is a validation guard: its last
// statement is a panic call. Such blocks are auto-cold — the program
// is crashing, the allocation does not matter.
func guardPanic(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	es, ok := b.List[len(b.List)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func (hc *hotChecker) assign(s *ast.AssignStmt) {
	for _, lhs := range s.Lhs {
		hc.expr(lhs)
	}
	for _, rhs := range s.Rhs {
		hc.expr(rhs)
	}
	// Interface-boxing check on 1:1 assignments (x = v, x := v).
	if len(s.Lhs) == len(s.Rhs) {
		for i := range s.Lhs {
			if dst := hc.p.Unit.Info.TypeOf(s.Lhs[i]); dst != nil {
				hc.boxing(dst, s.Rhs[i], "assignment")
			}
		}
	}
}

func (hc *hotChecker) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for i, v := range vs.Values {
			hc.expr(v)
			if i < len(vs.Names) {
				if obj := hc.p.Unit.Info.Defs[vs.Names[i]]; obj != nil {
					hc.boxing(obj.Type(), v, "declaration")
				}
			}
		}
	}
}

func (hc *hotChecker) ret(s *ast.ReturnStmt) {
	for _, e := range s.Results {
		hc.expr(e)
	}
	if len(hc.sigs) == 0 {
		return
	}
	sig := hc.sigs[len(hc.sigs)-1]
	if sig.Results().Len() != len(s.Results) {
		return
	}
	for i, e := range s.Results {
		hc.boxing(sig.Results().At(i).Type(), e, "return")
	}
}

func (hc *hotChecker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		hc.call(e)
	case *ast.CompositeLit:
		hc.compositeLit(e)
	case *ast.FuncLit:
		hc.reportf(e.Pos(), "function literal (closure may escape)")
		hc.funcLitBody(e)
	case *ast.UnaryExpr:
		if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok && e.Op == token.AND {
			hc.reportf(e.Pos(), "&composite literal allocates")
			hc.compositeElems(cl)
			return
		}
		hc.expr(e.X)
	case *ast.BinaryExpr:
		hc.binary(e)
	case *ast.ParenExpr:
		hc.expr(e.X)
	case *ast.IndexExpr:
		hc.expr(e.X)
		hc.expr(e.Index)
	case *ast.IndexListExpr:
		hc.expr(e.X)
	case *ast.SliceExpr:
		hc.expr(e.X)
		hc.expr(e.Low)
		hc.expr(e.High)
		hc.expr(e.Max)
	case *ast.StarExpr:
		hc.expr(e.X)
	case *ast.SelectorExpr:
		if sel, ok := hc.p.Unit.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			// A method value in value position binds its receiver: a
			// closure allocation. (Call sites never reach here — call()
			// walks only the receiver expression.)
			hc.reportf(e.Pos(), "method value %s (bound closure allocates)", e.Sel.Name)
		}
		hc.expr(e.X)
	case *ast.KeyValueExpr:
		hc.expr(e.Key)
		hc.expr(e.Value)
	case *ast.TypeAssertExpr:
		hc.expr(e.X)
	}
}

func (hc *hotChecker) binary(e *ast.BinaryExpr) {
	if e.Op == token.ADD {
		tv := hc.p.Unit.Info.Types[e]
		if tv.Value == nil && tv.Type != nil && isString(tv.Type) {
			hc.reportf(e.Pos(), "string concatenation allocates")
		}
	}
	hc.expr(e.X)
	hc.expr(e.Y)
}

func (hc *hotChecker) compositeLit(cl *ast.CompositeLit) {
	t := hc.p.Unit.Info.TypeOf(cl)
	if t != nil {
		switch types.Unalias(t).Underlying().(type) {
		case *types.Map:
			hc.reportf(cl.Pos(), "map literal allocates")
		case *types.Slice:
			hc.reportf(cl.Pos(), "slice literal allocates")
		}
	}
	// Struct and array literals are stack values; only their elements
	// need checking.
	hc.compositeElems(cl)
}

func (hc *hotChecker) compositeElems(cl *ast.CompositeLit) {
	for _, el := range cl.Elts {
		hc.expr(el)
	}
}

// funcLitBody checks a closure's body with the closure's own signature
// pushed for return-boxing checks.
func (hc *hotChecker) funcLitBody(fl *ast.FuncLit) {
	sig, _ := hc.p.Unit.Info.TypeOf(fl).(*types.Signature)
	if sig != nil {
		hc.sigs = append(hc.sigs, sig)
		defer func() { hc.sigs = hc.sigs[:len(hc.sigs)-1] }()
	}
	hc.stmt(fl.Body)
}

func (hc *hotChecker) call(call *ast.CallExpr) {
	info := hc.p.Unit.Info
	// Conversion?
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		hc.conversion(tv.Type, call)
		hc.expr(call.Args[0])
		return
	}
	calleeAllowed := false
	fn := calleeFunc(info, call)
	switch {
	case fn != nil:
		sym := symbolOf(fn)
		mod := hc.p.Module
		if sym != "" && (strings.HasPrefix(sym, mod.Path+".") || strings.HasPrefix(sym, mod.Path+"/")) {
			if _, hot := mod.Notes.Hotpath[sym]; !hot {
				hc.reportf(call.Pos(), "calls %s, which is not annotated //soar:hotpath", sym)
			} else {
				calleeAllowed = true
			}
		} else if stdlibAllowed(sym) {
			calleeAllowed = true
		} else {
			hc.reportf(call.Pos(), "calls %s (outside the hotpath stdlib allowlist)", sym)
		}
		if sig, ok := fn.Type().(*types.Signature); ok {
			hc.callBoxing(sig, call)
		}
	default:
		if bi := calleeBuiltin(info, call); bi != "" {
			switch bi {
			case "make":
				hc.reportf(call.Pos(), "make allocates")
			case "new":
				hc.reportf(call.Pos(), "new allocates")
			case "panic":
				hc.reportf(call.Pos(), "panic outside a guard position (argument escapes)")
			case "print", "println":
				hc.reportf(call.Pos(), "%s", bi)
			}
			calleeAllowed = true // builtins take FuncLit args never
		} else {
			hc.reportf(call.Pos(), "dynamic call (func value or interface method)")
		}
	}
	// Walk the callee expression's receiver chain (not the selector
	// itself: a called method is not a method value).
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		hc.expr(fun.X)
	case *ast.IndexExpr:
		if base, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
			hc.expr(base.X)
		}
	}
	for _, arg := range call.Args {
		switch a := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			// A closure handed to an allowlisted or annotated callee
			// (slices.SortFunc comparators, sync.Once.Do bodies) does not
			// escape; its body is still checked.
			if !calleeAllowed {
				hc.reportf(a.Pos(), "function literal argument (closure may escape)")
			}
			hc.funcLitBody(a)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[a]; ok && sel.Kind() == types.MethodVal && !calleeAllowed {
				hc.reportf(a.Pos(), "method value %s (bound closure allocates)", a.Sel.Name)
			}
			hc.expr(a.X)
		default:
			hc.expr(arg)
		}
	}
}

// conversion flags allocating conversions: string<->[]byte/[]rune.
func (hc *hotChecker) conversion(dst types.Type, call *ast.CallExpr) {
	src := hc.p.Unit.Info.TypeOf(call.Args[0])
	if src == nil {
		return
	}
	if isString(dst) && isByteOrRuneSlice(src) {
		hc.reportf(call.Pos(), "string conversion from slice allocates")
	}
	if isByteOrRuneSlice(dst) && isString(src) {
		hc.reportf(call.Pos(), "slice conversion from string allocates")
	}
}

// callBoxing flags concrete non-pointer-shaped arguments passed into
// interface parameters.
func (hc *hotChecker) callBoxing(sig *types.Signature, call *ast.CallExpr) {
	if call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if params.Len() == 0 {
				return
			}
			if sl, ok := params.At(params.Len() - 1).Type().Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			hc.boxing(pt, arg, "argument")
		}
	}
}

// boxing flags a concrete, non-pointer-shaped value converted to an
// interface type — the conversion heap-allocates the boxed copy.
func (hc *hotChecker) boxing(dst types.Type, src ast.Expr, context string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	// A type parameter's underlying is its interface constraint, but
	// passing a value to a generic parameter instantiates it with the
	// concrete type — no interface is built, nothing is boxed.
	if _, isTP := types.Unalias(dst).(*types.TypeParam); isTP {
		return
	}
	tv, ok := hc.p.Unit.Info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() || tv.Value != nil {
		return // untyped nil and constants are immaterial
	}
	st := tv.Type
	if types.IsInterface(st) || pointerShaped(st) {
		return
	}
	hc.reportf(src.Pos(), "%s boxes %s into %s (interface conversion allocates)", context, st, dst)
}

// pointerShaped reports whether values of t fit an interface word
// without boxing.
func pointerShaped(t types.Type) bool {
	switch types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isString(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// calleeFunc resolves a call's static callee, unwrapping generic
// instantiation; nil for builtins and dynamic calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	if ix, ok := fun.(*ast.IndexListExpr); ok {
		fun = ast.Unparen(ix.X)
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// calleeBuiltin returns the builtin's name if the call targets one.
func calleeBuiltin(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
