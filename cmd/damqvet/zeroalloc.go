package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// The transitive zero-alloc family. A body annotated with the hotpath
// marker is a propagation root: the allocation rules apply to it and,
// through the static call graph, to every function it can reach — a
// hotpath body may only call callees that are themselves alloc-clean,
// annotated hot (checked as their own root), or waived at the call line
// with the coldcall marker after an audit (amortized growth, pool
// refill). A violation two hops down reports with the call chain that
// reaches it: "... (hot path: Step -> probe)".
//
// Inside any hot-reachable body the pass flags the allocation classes
// the benchmark gate has caught in the past: fmt.* calls,
// container/heap operations (every element moves through `any`), string
// concatenation, closure literals, appends whose backing slice is not
// reachable from the receiver or a parameter, concrete values boxed
// into interface arguments, and trace/metrics sink method calls outside
// a nil-sink guard. Panic arguments and the bodies of
// `if sink != nil { ... }` guards are cold regions: the rules do not
// apply there and calls inside them are not propagation edges.

// allocScan caches the intraprocedural half of the pass for one body:
// the construct findings (already filtered by coldcall line waivers),
// the call edges the transitive pass may descend through, and the
// waivers that filtered something (credited as suppressing only if the
// body is actually reached from a hot root).
type allocScan struct {
	findings    []Finding
	calls       []*callSite // non-cold, non-waived module-internal edges
	suppressors []*marker   // coldcall markers that filtered a direct finding
	waivedCalls []waivedCall
}

// waivedCall is a call edge severed by a coldcall waiver; the audit
// credits the marker only if descending would have found something.
type waivedCall struct {
	m    *marker
	node *funcNode
}

// zeroallocPass runs the transitive zero-alloc family over the program:
// every hotpath-annotated declaration or literal is a root, and the
// obligation propagates depth-first through resolved call edges. A
// function reached from several roots is checked and reported once,
// under the first chain that reaches it (deterministic: roots and calls
// are visited in source order).
func (c *Checker) zeroallocPass(g *graph) {
	visited := map[*funcNode]bool{}
	dirtyMemo := map[*funcNode]int{}
	var visit func(n *funcNode, root *funcNode, chain []string)
	visit = func(n, root *funcNode, chain []string) {
		if visited[n] {
			return
		}
		visited[n] = true
		scan := c.allocScanOf(n)
		for _, f := range scan.findings {
			if len(chain) > 1 {
				f.Msg += " (hot path: " + chainString(chain) + ")"
				f.Chain = append([]string(nil), chain...)
			}
			c.Findings = append(c.Findings, f)
		}
		for _, m := range scan.suppressors {
			m.suppressed = true
		}
		for _, wc := range scan.waivedCalls {
			if wc.node != nil && wc.node.hot == nil && c.allocDirty(wc.node, dirtyMemo) {
				wc.m.suppressed = true
			}
		}
		for _, site := range scan.calls {
			if site.node.hot != nil {
				continue // a root of its own
			}
			next := append(append([]string(nil), chain...), site.node.name(root.pkg))
			visit(site.node, root, next)
		}
	}
	for _, n := range g.nodes {
		if n.hot != nil {
			visit(n, n, []string{n.name(n.pkg)})
		}
	}
}

// allocDirty reports whether checking n (and its non-hot, non-waived
// callees, transitively) would produce at least one finding — the test
// that keeps coldcall waivers honest. Cycles count as clean while being
// explored.
func (c *Checker) allocDirty(n *funcNode, memo map[*funcNode]int) bool {
	const exploring, clean, dirty = 1, 2, 3
	switch memo[n] {
	case exploring, clean:
		return false
	case dirty:
		return true
	}
	memo[n] = exploring
	scan := c.allocScanOf(n)
	res := clean
	if len(scan.findings) > 0 {
		res = dirty
	}
	for _, site := range scan.calls {
		if res == dirty {
			break
		}
		if site.node.hot == nil && c.allocDirty(site.node, memo) {
			res = dirty
		}
	}
	memo[n] = res
	return res == dirty
}

// allocScanOf computes (and caches) the intraprocedural scan of one
// body.
func (c *Checker) allocScanOf(n *funcNode) *allocScan {
	if n.alloc != nil {
		return n.alloc
	}
	scan := &allocScan{}
	n.alloc = scan
	info := n.pkg.Info

	cold := coldSpans(info, n.body)
	inCold := func(pos token.Pos) bool {
		for _, s := range cold {
			if s.lo <= pos && pos <= s.hi {
				return true
			}
		}
		return false
	}

	var recv *ast.FieldList
	var ftype *ast.FuncType
	if n.decl != nil {
		recv, ftype = n.decl.Recv, n.decl.Type
	} else {
		ftype = n.lit.Type
	}
	allowed := map[types.Object]bool{}
	paramObjects(info, recv, ftype, allowed)
	addDerivedLocals(info, n.body, allowed)

	sites := map[*ast.CallExpr][]*callSite{}
	for _, s := range n.calls {
		sites[s.call] = append(sites[s.call], s)
	}

	// raw findings and candidate edges, before waiver filtering.
	var raw []Finding
	flag := func(pos token.Pos, format string, args ...any) {
		raw = append(raw, Finding{Pos: c.Fset.Position(pos), Rule: ruleZeroalloc, Msg: fmt.Sprintf(format, args...)})
	}
	type edge struct {
		site *callSite
		line int
	}
	var edges []edge

	ast.Inspect(n.body, func(nd ast.Node) bool {
		if nd == nil {
			return true
		}
		if inCold(nd.Pos()) {
			return false
		}
		switch x := nd.(type) {
		case *ast.FuncLit:
			flag(x.Pos(), "closure literal in hot path allocates; hoist it or pass a method value built at construction time")
			return false
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringExpr(info, x) {
				flag(x.Pos(), "string concatenation in hot path allocates")
			}
		case *ast.AssignStmt:
			if x.Tok == token.ADD_ASSIGN && len(x.Lhs) == 1 && isStringExpr(info, x.Lhs[0]) {
				flag(x.Pos(), "string concatenation in hot path allocates")
			}
		case *ast.CallExpr:
			if c.checkHotCall(n.pkg, x, allowed, flag) {
				for _, site := range sites[x] {
					if site.node != nil {
						edges = append(edges, edge{site, c.Fset.Position(x.Pos()).Line})
					}
				}
			}
		}
		return true
	})

	// A coldcall waiver governs its source line: it filters every alloc
	// finding on the line and severs every call edge leaving it.
	for _, f := range raw {
		if m := n.ann.markerFor(markColdcall, f.Pos.Line); m != nil {
			already := false
			for _, have := range scan.suppressors {
				if have == m {
					already = true
				}
			}
			if !already {
				scan.suppressors = append(scan.suppressors, m)
			}
			continue
		}
		scan.findings = append(scan.findings, f)
	}
	for _, e := range edges {
		if m := n.ann.markerFor(markColdcall, e.line); m != nil {
			scan.waivedCalls = append(scan.waivedCalls, waivedCall{m: m, node: e.site.node})
			continue
		}
		scan.calls = append(scan.calls, e.site)
	}
	return scan
}

// checkHotCall applies the per-call rules: fmt usage, container/heap,
// non-receiver appends, unguarded trace methods, and interface boxing of
// arguments. It reports whether the call survives as a propagation edge
// (a flagged or builtin call is a finding or a no-op, not an edge).
func (c *Checker) checkHotCall(p *Package, call *ast.CallExpr, allowed map[types.Object]bool, flag func(token.Pos, string, ...any)) bool {
	info := p.Info
	if calleeFromPkg(info, call, "fmt", "") {
		sel := call.Fun.(*ast.SelectorExpr)
		flag(call.Pos(), "fmt.%s in hot path allocates; move formatting off the hot path", sel.Sel.Name)
		return false
	}
	if calleeFromPkg(info, call, "container/heap", "") {
		// heap.Interface moves every element through `any`: each Push
		// boxes its argument and each Pop boxes the return, one
		// allocation per event no matter what the elements are. The
		// return also suppresses the generic boxing finding on the same
		// call — one finding, naming the real fix.
		sel := call.Fun.(*ast.SelectorExpr)
		flag(call.Pos(), "container/heap.%s in hot path boxes through any; use a typed heap (see internal/eventsim.Engine)", sel.Sel.Name)
		return false
	}
	if isCheckpointCall(info, call) {
		flag(call.Pos(), "checkpoint call in hot path; the snapshot codec is cold by contract — save at a cycle boundary outside Step")
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
		if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
			return false // argument is a cold span; the function is aborting
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin && len(call.Args) > 0 {
			root := rootIdent(call.Args[0])
			var ro types.Object
			if root != nil {
				ro = objOf(info, root)
			}
			if ro == nil || !allowed[ro] {
				flag(call.Pos(), "append to a slice not reachable from the receiver or a parameter; growth allocates on the hot path")
			}
		}
		return false
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if _, isMethod := info.Selections[sel]; isMethod {
			if tv, ok := info.Types[sel.X]; ok && isSinkPointer(tv.Type) {
				flag(call.Pos(), "trace/metrics method call not dominated by a nil-sink guard; wrap it in `if sink != nil { ... }`")
				return false
			}
		}
	}
	c.checkBoxing(p, call, flag)
	return true
}

// isCheckpointCall reports whether call invokes anything from a package
// named "checkpoint": a package-level function (checkpoint.WriteFile) or
// a method on one of its types (Codec.I64, Codec.Section). The
// snapshot codec walks every switch and buffers whole sections — cold by
// contract, whatever it allocates — so a hot body reaching it is flagged
// unconditionally rather than judged allocation by allocation.
func isCheckpointCall(info *types.Info, call *ast.CallExpr) bool {
	if calleeFromPkg(info, call, "checkpoint", "") {
		return true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	selInfo, ok := info.Selections[sel]
	if !ok {
		return false
	}
	pkg := selInfo.Obj().Pkg()
	return pkg != nil && pkg.Name() == "checkpoint"
}

// checkBoxing flags concrete, non-pointer-shaped values passed where the
// callee expects an interface: the conversion boxes the value and
// allocates. Pointer-shaped kinds (pointers, channels, maps, funcs,
// unsafe pointers) convert without allocating and are permitted, as are
// nil and values that are already interfaces.
func (c *Checker) checkBoxing(p *Package, call *ast.CallExpr, flag func(token.Pos, string, ...any)) {
	info := p.Info
	ftv, ok := info.Types[call.Fun]
	if !ok {
		return
	}
	if ftv.IsType() {
		// Conversion expression T(x).
		if isInterface(ftv.Type) && len(call.Args) == 1 && boxes(info, call.Args[0]) {
			flag(call.Args[0].Pos(), "conversion to interface boxes a concrete value and allocates on the hot path")
		}
		return
	}
	sig, ok := ftv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	n := params.Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			pt = params.At(n - 1).Type().(*types.Slice).Elem()
		case i < n:
			pt = params.At(i).Type()
		default:
			continue
		}
		if isInterface(pt) && boxes(info, arg) {
			flag(arg.Pos(), "argument boxed into interface parameter allocates on the hot path; pass a pointer or restructure the call")
		}
	}
}

// coldSpans collects the source regions where allocation is acceptable:
// panic arguments (the function is aborting) and the bodies of
// `if sink != nil { ... }` guards over trace/obs sinks (observability is
// the opt-in path; guarded-off it never runs).
func coldSpans(info *types.Info, body *ast.BlockStmt) []span {
	var spans []span
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "panic" {
				if _, isBuiltin := objOf(info, id).(*types.Builtin); isBuiltin {
					spans = append(spans, span{x.Lparen, x.Rparen})
				}
			}
		case *ast.IfStmt:
			if isNilSinkGuard(info, x.Cond) {
				spans = append(spans, span{x.Body.Pos(), x.Body.End()})
			}
		}
		return true
	})
	return spans
}

// span is a half-open-ish source region [lo, hi] in token.Pos space.
type span struct{ lo, hi token.Pos }

// isNilSinkGuard matches `s != nil` (either operand order) where s has a
// pointer-to-sink type (Trace/Metrics/Observer-named, or any obs-package
// type); `if s := expr; s != nil` hits this too since only the condition
// is inspected. Compound conditions are deliberately not recognized:
// `m != nil && other` would make the cold region's reachability depend
// on non-sink state, so hot code must nest the guard instead.
func isNilSinkGuard(info *types.Info, cond ast.Expr) bool {
	be, ok := cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.NEQ {
		return false
	}
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		val, nilSide := pair[0], pair[1]
		if tv, ok := info.Types[nilSide]; !ok || !tv.IsNil() {
			continue
		}
		if tv, ok := info.Types[val]; ok && isSinkPointer(tv.Type) {
			return true
		}
	}
	return false
}

// isStringExpr reports whether e has string type.
func isStringExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// boxes reports whether passing arg to an interface parameter allocates:
// true for concrete non-pointer-shaped values, false for nil, values that
// are already interfaces, and pointer-shaped kinds.
func boxes(info *types.Info, arg ast.Expr) bool {
	tv, ok := info.Types[arg]
	if !ok || tv.IsNil() || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return false
		}
	}
	return true
}
