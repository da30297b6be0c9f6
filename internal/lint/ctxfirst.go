package lint

import (
	"go/ast"
	"go/types"
)

// CtxFirst enforces the context-first invocation invariant from DESIGN.md
// §5 on the wire-facing packages (core, pbio, soap — plus quality for the
// background-context rule):
//
//  1. A function that takes a context.Context takes it as the first
//     parameter.
//  2. An exported function that (transitively, within its package)
//     performs network I/O — dialing, HTTP client calls, reads or writes
//     on a net.Conn — must take a context.Context, so callers can bound
//     it. Compatibility wrappers are annotated with //lint:ignore.
//  3. Library code does not mint its own root contexts with
//     context.Background or context.TODO; the caller's context is the
//     only source of cancellation. (main packages and tests are exempt:
//     tests are never linted, and these packages are never package main.)
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context is first; exported I/O funcs take one; no context.Background in library code",
	Run:  runCtxFirst,
}

// ctxFirstPkgs are the package-path last segments the analyzer guards.
func ctxFirstApplies(path string) bool {
	switch pathLastSegment(path) {
	case "core", "pbio", "soap":
		return true
	}
	return false
}

func ctxBackgroundApplies(path string) bool {
	return ctxFirstApplies(path) || pathLastSegment(path) == "quality"
}

func runCtxFirst(pass *Pass) {
	path := pass.Pkg.Path()
	checkIO := ctxFirstApplies(path)
	checkBackground := ctxBackgroundApplies(path)
	if !checkIO && !checkBackground {
		return
	}

	netConn := lookupInterface(pass.Pkg, "net", "Conn")

	// Pass 1 over all declarations: parameter position, background
	// contexts, and the per-function base facts for the I/O propagation.
	type funcFacts struct {
		decl    *ast.FuncDecl
		callees []*types.Func
		baseIO  bool
	}
	facts := make(map[*types.Func]*funcFacts)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			checkCtxPosition(pass, fd, fn)
			f := &funcFacts{decl: fd}
			facts[fn] = f
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(pass.Info, call)
				if callee == nil {
					return true
				}
				if checkBackground && (isPkgFunc(callee, "context", "Background") || isPkgFunc(callee, "context", "TODO")) {
					pass.Report(call.Pos(), "library code must not create a root context with context.%s; thread the caller's ctx", callee.Name())
				}
				if !checkIO {
					return true
				}
				if callee.Pkg() == pass.Pkg {
					f.callees = append(f.callees, callee)
				} else if isBlockingNetCall(callee) {
					f.baseIO = true
				}
				if isConnIO(pass.Info, call, netConn) {
					f.baseIO = true
				}
				return true
			})
		}
	}
	if !checkIO {
		return
	}

	// Fixed-point propagation of I/O-ness through the intra-package call
	// graph, then the exported-function check.
	io := make(map[*types.Func]bool)
	for fn, f := range facts {
		if f.baseIO {
			io[fn] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, f := range facts {
			if io[fn] {
				continue
			}
			for _, callee := range f.callees {
				if io[callee] {
					io[fn] = true
					changed = true
					break
				}
			}
		}
	}
	for fn, f := range facts {
		if !io[fn] || !fn.Exported() {
			continue
		}
		if hasCtxParam(fn) {
			continue
		}
		pass.Report(f.decl.Name.Pos(), "exported %s performs network I/O but takes no context.Context", fn.Name())
	}
}

// checkCtxPosition reports a context.Context parameter that is not first.
func checkCtxPosition(pass *Pass, fd *ast.FuncDecl, fn *types.Func) {
	sig := fn.Type().(*types.Signature)
	params := sig.Params()
	for i := 1; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			pass.Report(fd.Name.Pos(), "%s has context.Context as parameter %d; context must be the first parameter", fn.Name(), i+1)
		}
	}
}

func hasCtxParam(fn *types.Func) bool {
	params := fn.Type().(*types.Signature).Params()
	return params.Len() > 0 && isContextType(params.At(0).Type())
}

// isBlockingNetCall reports calls that open connections or run HTTP
// round trips — the operations a context must be able to abort. Accept
// and Close are deliberately excluded (lifecycle, not per-call I/O), as
// is net.Listen (binding returns immediately).
func isBlockingNetCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "net":
		switch fn.Name() {
		case "Dial", "DialTimeout", "DialContext", "DialIP", "DialTCP", "DialUDP", "DialUnix":
			return true
		}
	case "net/http":
		switch fn.Name() {
		case "Do", "Get", "Post", "PostForm", "Head":
		default:
			return false
		}
		// Package-level http.Get/Post/... or a *http.Client method —
		// not just anything that happens to be called Get (http.Header
		// has one of those).
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return true
		}
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Name() == "Client"
	}
	return false
}

// isConnIO reports method calls Read/Write/ReadFrom/WriteTo on a value
// whose static type implements net.Conn.
func isConnIO(info *types.Info, call *ast.CallExpr, netConn *types.Interface) bool {
	if netConn == nil {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Read", "Write", "ReadFrom", "WriteTo":
	default:
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Implements(tv.Type, netConn) || types.Implements(types.NewPointer(tv.Type), netConn)
}

// lookupInterface finds a named interface in the (transitive) imports of
// pkg, or nil when the package never touches it.
func lookupInterface(pkg *types.Package, pkgPath, name string) *types.Interface {
	var find func(p *types.Package, seen map[*types.Package]bool) *types.Package
	find = func(p *types.Package, seen map[*types.Package]bool) *types.Package {
		if seen[p] {
			return nil
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			if imp.Path() == pkgPath {
				return imp
			}
			if found := find(imp, seen); found != nil {
				return found
			}
		}
		return nil
	}
	netPkg := find(pkg, map[*types.Package]bool{})
	if netPkg == nil {
		return nil
	}
	obj := netPkg.Scope().Lookup(name)
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	return iface
}
