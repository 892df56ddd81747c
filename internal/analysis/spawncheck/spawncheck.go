// Package spawncheck requires every go statement to come with provable
// teardown, so the TCP transport (and everything else) cannot leak
// goroutines: a leaked reader keeps its connection and buffers alive
// forever, and a thousand-run experiment suite multiplies that by a
// thousand.
//
// Accepted evidence, checked on the spawned function's body via the call
// graph (function literals are graph nodes of their own):
//
//   - WaitGroup join: the spawned body calls Done (usually deferred) on a
//     sync.WaitGroup, and the spawning function calls Add on the same
//     expression — the t.wg.Add(1) / defer t.wg.Done() idiom every
//     transport goroutine in this repo uses;
//   - close-guarded loop: the spawned body ranges over a channel (the loop
//     ends when the channel closes), or selects on a receive whose case
//     returns — the done-channel idiom.
//
// A spawn of a dynamic function value cannot be checked and is reported
// as such. Goroutines that intentionally live for the process (the
// rtds-node HTTP listener) carry //lint:allow spawncheck -- <why>.
package spawncheck

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

// Analyzer is the spawncheck check.
var Analyzer = &analysis.Analyzer{
	Name:   "spawncheck",
	Escape: "spawncheck",
	Doc: "require every go statement to have a provable join or teardown " +
		"path (WaitGroup, close-guarded loop) so goroutines cannot leak",
	RunProgram: run,
}

func run(pass *analysis.ProgramPass) error {
	g := callgraph.Build(pass.Prog.Fset, pass.Prog.Packages)
	for _, n := range g.Nodes {
		spawnEdges := make(map[*ast.GoStmt][]*callgraph.Edge)
		for _, e := range n.Out {
			if e.Ctx == callgraph.Go && e.GoStmt != nil {
				spawnEdges[e.GoStmt] = append(spawnEdges[e.GoStmt], e)
			}
		}
		for _, gs := range n.Spawns {
			edges := spawnEdges[gs]
			if len(edges) == 0 {
				pass.Reportf(gs.Pos(),
					"goroutine target is a dynamic function value spawncheck cannot resolve — spawn a named function or justify with //lint:allow spawncheck")
				continue
			}
			// Every possible callee (CHA can yield several) needs evidence.
			for _, e := range edges {
				if !joined(n, e.Callee) {
					pass.Reportf(gs.Pos(),
						"goroutine (%s) has no provable join or teardown — no WaitGroup Done with a matching Add, no close-guarded receive loop; goroutine leak risk: add one or justify with //lint:allow spawncheck",
						e.Callee.Name)
				}
			}
		}
	}
	return nil
}

// joined reports whether the spawned callee's body carries teardown
// evidence (relative to the spawning function, which must supply the
// matching WaitGroup Add).
func joined(spawner, callee *callgraph.Node) bool {
	body := callee.Body()
	if body == nil {
		return false
	}
	info := callee.Pkg.TypesInfo
	ok := false
	ast.Inspect(body, func(x ast.Node) bool {
		if ok {
			return false
		}
		switch s := x.(type) {
		case *ast.CallExpr:
			if expr, found := waitGroupCall(info, s, "Done"); found && hasAdd(spawner, expr) {
				ok = true
			}
		case *ast.RangeStmt:
			if tv, found := info.Types[s.X]; found {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					ok = true
				}
			}
		case *ast.CommClause:
			if isReceive(s.Comm) && hasReturn(s.Body) {
				ok = true
			}
		}
		return !ok
	})
	return ok
}

// waitGroupCall recognizes X.<method>() on a sync.WaitGroup and returns
// X's printed form as the pairing key.
func waitGroupCall(info *types.Info, call *ast.CallExpr, method string) (string, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != method {
		return "", false
	}
	tv, found := info.Types[sel.X]
	if !found || !isWaitGroup(tv.Type) {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// hasAdd reports whether the spawning function calls Add on the same
// WaitGroup expression.
func hasAdd(spawner *callgraph.Node, expr string) bool {
	body := spawner.Body()
	if body == nil {
		return false
	}
	info := spawner.Pkg.TypesInfo
	found := false
	ast.Inspect(body, func(x ast.Node) bool {
		if found {
			return false
		}
		if call, isCall := x.(*ast.CallExpr); isCall {
			if e, isWG := waitGroupCall(info, call, "Add"); isWG && e == expr {
				found = true
			}
		}
		return !found
	})
	return found
}

func isWaitGroup(t types.Type) bool {
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// isReceive reports whether a select communication is a channel receive.
func isReceive(comm ast.Stmt) bool {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		u, isU := s.X.(*ast.UnaryExpr)
		return isU && u.Op.String() == "<-"
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			u, isU := s.Rhs[0].(*ast.UnaryExpr)
			return isU && u.Op.String() == "<-"
		}
	}
	return false
}

func hasReturn(stmts []ast.Stmt) bool {
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(x ast.Node) bool {
			switch x.(type) {
			case *ast.ReturnStmt:
				found = true
			case *ast.FuncLit:
				return false
			}
			return !found
		})
	}
	return found
}
