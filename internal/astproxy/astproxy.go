// Package astproxy rewrites Go source so that RDL call sites route through
// ER-π's interception hooks — the Go flavour of the paper's proxy
// generation (§5.1.1: "we use go/ast, which interfaces with the Go compiler
// to expose an Abstract-Syntax Tree; by modifying AST, we introduce the
// needed proxy generation functionality").
//
// The rewriter brackets statements that call configured receivers or
// packages with interception hooks:
//
//	replicaState.Add("x")      →  erpiBefore("replicaState.Add")
//	                              replicaState.Add("x")
//	                              erpiAfter("replicaState.Add")
//	v := replicaState.Get(k)   →  erpiBefore("replicaState.Get")
//	                              v := replicaState.Get(k)
//	                              erpiAfter("replicaState.Get")
//
// The bracketing form is deliberately type-agnostic: it needs no knowledge
// of the callee's result types, so it works on any RDL without type
// checking — mirroring how the paper's proxies wrap library functions
// without modifying their source. Helper declarations (hook variables and
// a setter) are emitted into one file per package; the default hooks are
// no-ops, so rewritten code behaves identically outside ER-π sessions.
package astproxy

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
)

// Config selects which calls to proxy.
type Config struct {
	// Receivers are identifier names whose method calls are proxied
	// (e.g. "replicaState").
	Receivers []string
	// Packages are package qualifiers whose function calls are proxied
	// (e.g. "crdt").
	Packages []string
	// EmitHelpers controls whether the hook declarations are appended.
	// Enable it for exactly one file per package.
	EmitHelpers bool
}

// Report summarizes one rewrite.
type Report struct {
	// Wrapped lists the operation names of proxied call sites in order.
	Wrapped []string
	// Skipped lists matching calls in positions the rewriter does not
	// bracket (expressions nested inside other statements).
	Skipped []string
}

// RewriteFile parses src, brackets matching call statements with hooks,
// and returns the formatted result.
func RewriteFile(filename string, src []byte, cfg Config) ([]byte, Report, error) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, Report{}, fmt.Errorf("astproxy: parse %s: %w", filename, err)
	}
	r := &rewriter{cfg: cfg}
	ast.Inspect(file, func(n ast.Node) bool {
		if block, ok := n.(*ast.BlockStmt); ok {
			r.rewriteBlock(block)
		}
		return true
	})
	r.countNested(file)
	if cfg.EmitHelpers && len(r.report.Wrapped) > 0 {
		if err := appendHelpers(fset, file); err != nil {
			return nil, Report{}, err
		}
	}
	var buf bytes.Buffer
	if err := format.Node(&buf, fset, file); err != nil {
		return nil, Report{}, fmt.Errorf("astproxy: format: %w", err)
	}
	return buf.Bytes(), r.report, nil
}

// RewriteSource is a convenience over RewriteFile for string input.
func RewriteSource(src string, cfg Config) (string, Report, error) {
	out, rep, err := RewriteFile("src.go", []byte(src), cfg)
	if err != nil {
		return "", rep, err
	}
	return string(out), rep, nil
}

type rewriter struct {
	cfg     Config
	report  Report
	bracket map[*ast.CallExpr]bool
}

// target reports whether the call expression is a proxied RDL call and
// returns its operation name.
func (r *rewriter) target(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	name := recv.Name + "." + sel.Sel.Name
	for _, want := range r.cfg.Receivers {
		if recv.Name == want {
			return name, true
		}
	}
	for _, want := range r.cfg.Packages {
		if recv.Name == want {
			return name, true
		}
	}
	return "", false
}

func (r *rewriter) rewriteBlock(block *ast.BlockStmt) {
	out := make([]ast.Stmt, 0, len(block.List))
	for _, stmt := range block.List {
		op, call, ok := r.statementCall(stmt)
		if !ok {
			out = append(out, stmt)
			continue
		}
		if r.bracket == nil {
			r.bracket = make(map[*ast.CallExpr]bool)
		}
		r.bracket[call] = true
		out = append(out,
			hookStmt("erpiBefore", op),
			stmt,
			hookStmt("erpiAfter", op),
		)
		r.report.Wrapped = append(r.report.Wrapped, op)
	}
	block.List = out
}

// statementCall recognizes a bracketable statement: a bare call or an
// assignment whose single RHS is a matching call.
func (r *rewriter) statementCall(stmt ast.Stmt) (string, *ast.CallExpr, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if op, ok := r.target(call); ok {
				return op, call, true
			}
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
				if op, ok := r.target(call); ok {
					return op, call, true
				}
			}
		}
	}
	return "", nil, false
}

// countNested records matching calls the rewriter could not bracket (e.g.
// inside if-conditions or composite expressions), so users see the
// limitation explicitly.
func (r *rewriter) countNested(file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		op, ok := r.target(call)
		if !ok {
			return true
		}
		if !r.bracket[call] {
			r.report.Skipped = append(r.report.Skipped, op)
		}
		return true
	})
}

func hookStmt(hook, op string) ast.Stmt {
	return &ast.ExprStmt{X: &ast.CallExpr{
		Fun:  ast.NewIdent(hook),
		Args: []ast.Expr{&ast.BasicLit{Kind: token.STRING, Value: strconv.Quote(op)}},
	}}
}

// helperSource holds the hook declarations appended once per package. A
// test harness installs its own hooks with ErpiSetHooks; nothing in the
// engine binds them, and the defaults are no-ops.
const helperSource = `package stub

// erpiBefore and erpiAfter are ER-π's interception points, bracketing
// every proxied RDL call. The defaults are no-ops so rewritten code
// behaves identically outside ER-π sessions.
var (
	erpiBefore = func(op string) {}
	erpiAfter  = func(op string) {}
)

// ErpiSetHooks installs interception hooks and returns a restore function.
func ErpiSetHooks(before, after func(op string)) (restore func()) {
	prevBefore, prevAfter := erpiBefore, erpiAfter
	if before != nil {
		erpiBefore = before
	}
	if after != nil {
		erpiAfter = after
	}
	return func() { erpiBefore, erpiAfter = prevBefore, prevAfter }
}
`

func appendHelpers(fset *token.FileSet, file *ast.File) error {
	parsed, err := parser.ParseFile(fset, "erpi_helpers.go", helperSource, 0)
	if err != nil {
		return fmt.Errorf("astproxy: internal helper source invalid: %w", err)
	}
	file.Decls = append(file.Decls, parsed.Decls...)
	return nil
}

// OpsOf extracts the distinct wrapped operation names of a report, in
// first-seen order — useful for generating pruning configs.
func (r Report) OpsOf() []string {
	seen := make(map[string]bool)
	var out []string
	for _, op := range r.Wrapped {
		if !seen[op] {
			seen[op] = true
			out = append(out, op)
		}
	}
	return out
}

// Summary renders a human-readable report.
func (r Report) Summary() string {
	return fmt.Sprintf("wrapped %d call site(s) [%s], skipped %d",
		len(r.Wrapped), strings.Join(r.OpsOf(), ", "), len(r.Skipped))
}
