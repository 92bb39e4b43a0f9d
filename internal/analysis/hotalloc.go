package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAllocAnalyzer enforces the scratch-arena discipline of the
// slot-loop hot paths (internal/sim, mobility, routing, scheduler,
// spatial): buffers are allocated once per cell and reused, so the
// per-slot inner loops run allocation-free. The allocation churn those
// loops would otherwise accumulate shows in perfbench's allocs_per_op;
// this analyzer turns that benchmark metric into a compile-time
// invariant.
//
// A loop is "hot" when it is part of a loop nest of depth >= 2 — the
// shape of every per-slot simulation loop (slot loop around per-node /
// per-pair / per-BS loops). Flat single loops (per-cell setup, queue
// scans) are exempt, which is the heuristic that keeps one-time setup
// allocations out of scope. Inside a hot loop the analyzer flags
//
//   - make, new, &composite and slice/map composite literals: a fresh
//     heap object every iteration;
//   - append whose result does not reuse its first argument's backing,
//     and append growing a slice that was freshly declared inside the
//     nest (a reslice-initialized local like `rest := q[:0]` is the
//     recognized in-place compaction idiom and stays clean);
//   - function literals: the closure (and its captured variables)
//     allocates per iteration;
//   - interface boxing: conversions to interface types, string<->byte
//     slice conversions, and concrete arguments passed to non-variadic
//     interface parameters (variadic ...any sinks are error paths and
//     stay exempt).
//
// The scratch-arena idiom — a preallocated buffer threaded in via
// receiver, parameter or outer-scope variable and grown with
// self-append — is recognized as clean.
var HotAllocAnalyzer = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid per-iteration heap allocations (make/new/append-growth/closures/interface boxing) inside slot-loop hot paths; preallocate and reuse scratch buffers instead",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	forEachFuncScope(pass.Files, func(body *ast.BlockStmt) {
		checkHotScope(pass, body)
	})
	return nil
}

// forEachFuncScope calls fn once per function scope: every FuncDecl
// body and every function-literal body, each analyzed independently (a
// loop does not extend into the closures it creates — they run on their
// own schedule).
func forEachFuncScope(files []*ast.File, fn func(body *ast.BlockStmt)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d.Body)
				}
			case *ast.FuncLit:
				fn(d.Body)
			}
			return true
		})
	}
}

// checkHotScope analyzes one function scope: finds its hot loops and
// flags per-iteration allocations inside them.
func checkHotScope(pass *Pass, body *ast.BlockStmt) {
	nested := nestedLoops(body)
	declInit := collectDeclInits(pass, body)

	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if lit, ok := n.(*ast.FuncLit); ok {
			if loops := enclosingLoopBodies(stack, lit.Pos()); isHot(loops, nested) {
				pass.Reportf(lit.Pos(), "hot-loop closure: the function literal (and every captured variable) allocates per iteration; hoist it out of the loop or justify with //lint:ignore hotalloc")
			}
			// The literal's own body is a separate scope; do not descend.
			return false
		}
		if loops := enclosingLoopBodies(stack, n.Pos()); isHot(loops, nested) {
			checkHotNode(pass, n, stack, loops, declInit)
		}
		stack = append(stack, n)
		return true
	})
}

// nestedLoops records, for every loop statement in the scope, whether
// its body contains another loop (closure bodies excluded: a loop nest
// does not extend into the function literals it creates).
func nestedLoops(body *ast.BlockStmt) map[ast.Stmt]bool {
	nested := make(map[ast.Stmt]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if !isLoop(n) {
			return true
		}
		outer := n.(ast.Stmt)
		ast.Inspect(loopBody(outer), func(m ast.Node) bool {
			if m == nil {
				return true
			}
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if isLoop(m) {
				nested[outer] = true
				return false
			}
			return true
		})
		return true
	})
	return nested
}

func isLoop(n ast.Node) bool {
	switch n.(type) {
	case *ast.ForStmt, *ast.RangeStmt:
		return true
	}
	return false
}

func loopBody(s ast.Stmt) *ast.BlockStmt {
	switch l := s.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// enclosingLoopBodies returns the loops on the stack whose body spans
// pos, outermost first. Positions in a loop's init/cond/post or range
// expression evaluate once per loop, not per iteration, and are
// excluded.
func enclosingLoopBodies(stack []ast.Node, pos token.Pos) []ast.Stmt {
	var loops []ast.Stmt
	for _, n := range stack {
		if !isLoop(n) {
			continue
		}
		s := n.(ast.Stmt)
		if b := loopBody(s); b != nil && b.Pos() <= pos && pos < b.End() {
			loops = append(loops, s)
		}
	}
	return loops
}

// isHot reports whether an allocation under the given loop chain sits
// in a loop nest of depth >= 2: two or more enclosing loops, or a
// single enclosing loop that itself contains another loop.
func isHot(loops []ast.Stmt, nested map[ast.Stmt]bool) bool {
	if len(loops) >= 2 {
		return true
	}
	return len(loops) == 1 && nested[loops[0]]
}

// collectDeclInits maps every object declared in the scope to its
// initializer expression, so append targets can be classified as fresh
// slices versus reslice-initialized scratch.
func collectDeclInits(pass *Pass, body *ast.BlockStmt) map[types.Object]ast.Expr {
	inits := make(map[types.Object]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.AssignStmt:
			if d.Tok.String() != ":=" {
				return true
			}
			for i, lhs := range d.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					continue
				}
				if len(d.Rhs) == len(d.Lhs) {
					inits[obj] = d.Rhs[i]
				}
			}
		case *ast.ValueSpec:
			for i, id := range d.Names {
				obj := pass.Info.Defs[id]
				if obj == nil {
					continue
				}
				if i < len(d.Values) {
					inits[obj] = d.Values[i]
				}
			}
		}
		return true
	})
	return inits
}

// checkHotNode flags one node inside a hot loop if it allocates.
func checkHotNode(pass *Pass, n ast.Node, stack []ast.Node, loops []ast.Stmt, declInit map[types.Object]ast.Expr) {
	parent := ast.Node(nil)
	if len(stack) > 0 {
		parent = stack[len(stack)-1]
	}
	switch e := n.(type) {
	case *ast.CallExpr:
		checkHotCall(pass, e, parent, loops, declInit)
	case *ast.CompositeLit:
		// &T{...} is reported at the UnaryExpr; avoid a duplicate here.
		if u, ok := parent.(*ast.UnaryExpr); ok && u.Op.String() == "&" {
			return
		}
		if t := pass.TypeOf(e); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(e.Pos(), "hot-loop allocation: %s literal allocates fresh backing every iteration; hoist and reuse a scratch buffer or justify with //lint:ignore hotalloc", kindOf(t))
			}
		}
	case *ast.UnaryExpr:
		if e.Op.String() == "&" {
			if _, ok := e.X.(*ast.CompositeLit); ok {
				pass.Reportf(e.Pos(), "hot-loop allocation: &composite literal escapes to the heap every iteration; reuse a preallocated value or justify with //lint:ignore hotalloc")
			}
		}
	}
}

func kindOf(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// checkHotCall classifies a call expression inside a hot loop: builtin
// allocators, allocating conversions, and interface boxing at the call
// site.
func checkHotCall(pass *Pass, call *ast.CallExpr, parent ast.Node, loops []ast.Stmt, declInit map[types.Object]ast.Expr) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "hot-loop allocation: make allocates every iteration; hoist the buffer out of the loop and reuse it (scratch-arena idiom) or justify with //lint:ignore hotalloc")
			case "new":
				pass.Reportf(call.Pos(), "hot-loop allocation: new allocates every iteration; hoist the value out of the loop or justify with //lint:ignore hotalloc")
			case "append":
				checkHotAppend(pass, call, parent, loops, declInit)
			}
			return
		}
	}
	// Conversions: T(x) with T an interface boxes; string<->[]byte/[]rune
	// copies.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pass.TypeOf(call.Args[0])
		if src == nil {
			return
		}
		if types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) {
			pass.Reportf(call.Pos(), "hot-loop allocation: conversion to interface type %s boxes its operand every iteration; keep the concrete type in the loop or justify with //lint:ignore hotalloc", dst)
			return
		}
		if isStringBytesConversion(dst, src) {
			pass.Reportf(call.Pos(), "hot-loop allocation: %s(...) copies its operand every iteration; hoist the conversion or reuse a buffer, or justify with //lint:ignore hotalloc", dst)
		}
		return
	}
	// Interface boxing at the call site: a concrete argument bound to a
	// non-variadic interface parameter allocates. The variadic tail
	// (...any sinks like fmt.Errorf) is exempt: those are error paths.
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	if sig.Variadic() {
		n--
	}
	for i := 0; i < n && i < len(call.Args); i++ {
		if !types.IsInterface(params.At(i).Type().Underlying()) {
			continue
		}
		arg := call.Args[i]
		if _, isLit := arg.(*ast.FuncLit); isLit {
			continue // reported as a closure allocation already
		}
		at := pass.TypeOf(arg)
		if at == nil || types.IsInterface(at.Underlying()) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		pass.Reportf(arg.Pos(), "hot-loop allocation: concrete %s boxed into interface parameter %q every iteration; hoist the interface value or justify with //lint:ignore hotalloc", at, params.At(i).Name())
	}
}

func isStringBytesConversion(dst, src types.Type) bool {
	return (isString(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isString(src))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Uint8 || e.Kind() == types.Rune || e.Kind() == types.Int32)
}

// checkHotAppend distinguishes the clean self-append scratch idiom from
// per-iteration slice growth. Clean: `x = append(x, ...)` where x (or
// the root of x's selector/index chain) is declared outside the loop
// nest, or is a local initialized from a reslice (`rest := q[:0]`, the
// in-place compaction idiom). Flagged: append whose result lands
// somewhere other than its first argument, and growth of a slice that
// is freshly created on every iteration.
func checkHotAppend(pass *Pass, call *ast.CallExpr, parent ast.Node, loops []ast.Stmt, declInit map[types.Object]ast.Expr) {
	if len(call.Args) == 0 {
		return
	}
	assign, ok := parent.(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 || assign.Rhs[0] != ast.Expr(call) {
		pass.Reportf(call.Pos(), "hot-loop allocation: append result does not overwrite its argument; the grown backing cannot be reused next iteration (assign x = append(x, ...)) or justify with //lint:ignore hotalloc")
		return
	}
	if types.ExprString(assign.Lhs[0]) != types.ExprString(call.Args[0]) {
		pass.Reportf(call.Pos(), "hot-loop allocation: append into a different destination than its source (%s = append(%s, ...)) abandons the destination's backing every iteration; append to self or justify with //lint:ignore hotalloc",
			types.ExprString(assign.Lhs[0]), types.ExprString(call.Args[0]))
		return
	}
	root := rootIdent(assign.Lhs[0])
	if root == nil {
		return // compound target rooted outside a simple identifier: treat as outer scratch
	}
	obj := pass.Info.ObjectOf(root)
	if obj == nil || len(loops) == 0 {
		return
	}
	outer := loops[0]
	if obj.Pos() < outer.Pos() || obj.Pos() >= outer.End() {
		return // declared outside the nest: reused scratch, capacity survives iterations
	}
	if init, ok := declInit[obj]; ok {
		if _, resliced := init.(*ast.SliceExpr); resliced {
			return // rest := q[:0] — in-place compaction reusing q's backing
		}
	}
	pass.Reportf(call.Pos(), "hot-loop allocation: %s is declared inside the loop nest, so append grows a fresh slice every iteration; declare the buffer before the loop and reuse it or justify with //lint:ignore hotalloc", root.Name)
}

// rootIdent unwraps selector/index/paren/star chains to the base
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
