package scil

import (
	"fmt"
	"sort"
)

// CheckMode selects how strict semantic analysis is.
type CheckMode int

const (
	// CheckBasic validates name resolution, arity, and structure.
	CheckBasic CheckMode = iota
	// CheckWCET additionally enforces the restrictions required for
	// static WCET analysis: every while loop carries a @bound pragma and
	// the call graph is acyclic.
	CheckWCET
)

// Check performs semantic analysis on prog, resolving every CallExpr to
// indexing / builtin / user call and validating the subset restrictions.
// It returns all diagnostics found (empty slice means the program is valid).
// Check only reads prog, so one program may be checked (and compiled)
// from many goroutines at once.
func Check(prog *Program, mode CheckMode) []error {
	return check(prog, mode).errs
}

// check runs the checker and returns it with its diagnostics and the
// call classifications it resolved.
func check(prog *Program, mode CheckMode) *checker {
	c := &checker{prog: prog, mode: mode, kinds: make(map[*CallExpr]CallKind)}
	for _, f := range prog.Funcs {
		c.checkFunc(f)
	}
	if mode == CheckWCET {
		c.checkRecursion()
	}
	return c
}

// MustCheck panics if prog fails Check; convenience for built-in models.
func MustCheck(prog *Program, mode CheckMode) *Program {
	if errs := Check(prog, mode); len(errs) > 0 {
		panic(fmt.Sprintf("scil.MustCheck: %v", errs[0]))
	}
	return prog
}

type checker struct {
	prog *Program
	mode CheckMode
	errs []error
	// kinds classifies every call the checker resolved; unresolved calls
	// are absent (CallUnresolved).
	kinds map[*CallExpr]CallKind
}

func (c *checker) errorf(pos Pos, format string, args ...any) {
	c.errs = append(c.errs, errf(pos, format, args...))
}

// assignedNames collects every name the function can bind: parameters,
// assignment targets, and loop variables. A CallExpr on such a name is
// matrix indexing.
func assignedNames(f *FuncDecl) map[string]bool {
	names := make(map[string]bool)
	for _, p := range f.Params {
		names[p] = true
	}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *AssignStmt:
				for _, lv := range st.LHS {
					names[lv.Name] = true
				}
			case *ForStmt:
				names[st.Var] = true
				walk(st.Body)
			case *WhileStmt:
				walk(st.Body)
			case *IfStmt:
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(f.Body)
	return names
}

func (c *checker) checkFunc(f *FuncDecl) {
	vars := assignedNames(f)
	seen := make(map[string]bool)
	for _, p := range f.Params {
		if seen[p] {
			c.errorf(f.Pos, "%s: duplicate parameter %q", f.Name, p)
		}
		seen[p] = true
	}
	seenR := make(map[string]bool)
	for _, r := range f.Results {
		if seenR[r] {
			c.errorf(f.Pos, "%s: duplicate result %q", f.Name, r)
		}
		seenR[r] = true
		if !vars[r] {
			c.errorf(f.Pos, "%s: result variable %q is never assigned", f.Name, r)
		}
	}
	c.checkBlock(f, f.Body, vars, 0)
}

func (c *checker) checkBlock(f *FuncDecl, stmts []Stmt, vars map[string]bool, loopDepth int) {
	for _, s := range stmts {
		c.checkStmt(f, s, vars, loopDepth)
	}
}

func (c *checker) checkStmt(f *FuncDecl, s Stmt, vars map[string]bool, loopDepth int) {
	switch st := s.(type) {
	case *AssignStmt:
		c.checkAssign(f, st, vars)
	case *ExprStmt:
		c.checkExpr(f, st.X, vars)
	case *ForStmt:
		c.checkExpr(f, st.Lo, vars)
		c.checkExpr(f, st.Hi, vars)
		if st.Step != nil {
			c.checkExpr(f, st.Step, vars)
		}
		c.checkBlock(f, st.Body, vars, loopDepth+1)
	case *WhileStmt:
		if c.mode == CheckWCET && st.Bound <= 0 {
			c.errorf(st.Pos, "%s: while loop requires a //@bound N pragma for WCET analysis", f.Name)
		}
		c.checkExpr(f, st.Cond, vars)
		c.checkBlock(f, st.Body, vars, loopDepth+1)
	case *IfStmt:
		c.checkExpr(f, st.Cond, vars)
		c.checkBlock(f, st.Then, vars, loopDepth)
		c.checkBlock(f, st.Else, vars, loopDepth)
	case *BreakStmt:
		if loopDepth == 0 {
			c.errorf(st.Pos, "%s: break outside loop", f.Name)
		}
	case *ContinueStmt:
		if loopDepth == 0 {
			c.errorf(st.Pos, "%s: continue outside loop", f.Name)
		}
	}
}

func (c *checker) checkAssign(f *FuncDecl, st *AssignStmt, vars map[string]bool) {
	if len(st.LHS) > 1 {
		call, ok := st.RHS.(*CallExpr)
		if !ok {
			c.errorf(st.Pos, "%s: multi-assignment requires a function call on the right", f.Name)
			return
		}
		callee := c.prog.Func(call.Name)
		if callee == nil {
			c.errorf(call.Pos, "%s: multi-assignment from %q which is not a user function", f.Name, call.Name)
			return
		}
		c.kinds[call] = CallUser
		if len(callee.Results) < len(st.LHS) {
			c.errorf(st.Pos, "%s: %q returns %d values but %d are requested", f.Name, call.Name, len(callee.Results), len(st.LHS))
		}
		if len(call.Args) != len(callee.Params) {
			c.errorf(call.Pos, "%s: %q expects %d arguments, got %d", f.Name, call.Name, len(callee.Params), len(call.Args))
		}
		for _, lv := range st.LHS {
			if lv.Index != nil {
				c.errorf(lv.Pos, "%s: indexed target in multi-assignment", f.Name)
			}
		}
		for _, a := range call.Args {
			c.checkExpr(f, a, vars)
		}
		return
	}
	lv := st.LHS[0]
	for _, ix := range lv.Index {
		c.checkExpr(f, ix, vars)
	}
	if len(lv.Index) > 2 {
		c.errorf(lv.Pos, "%s: at most 2 subscripts supported, got %d", f.Name, len(lv.Index))
	}
	c.checkExpr(f, st.RHS, vars)
}

func (c *checker) checkExpr(f *FuncDecl, e Expr, vars map[string]bool) {
	switch x := e.(type) {
	case *NumberLit, *StringLit:
	case *Ident:
		if !vars[x.Name] {
			c.errorf(x.Pos, "%s: undefined variable %q", f.Name, x.Name)
		}
	case *UnExpr:
		c.checkExpr(f, x.X, vars)
	case *BinExpr:
		c.checkExpr(f, x.X, vars)
		c.checkExpr(f, x.Y, vars)
	case *RangeExpr:
		c.checkExpr(f, x.Lo, vars)
		c.checkExpr(f, x.Hi, vars)
		if x.Step != nil {
			c.checkExpr(f, x.Step, vars)
		}
	case *MatrixLit:
		w := -1
		for i, row := range x.Rows {
			if w == -1 {
				w = len(row)
			} else if len(row) != w {
				c.errorf(x.Pos, "%s: ragged matrix literal at row %d", f.Name, i+1)
			}
			for _, el := range row {
				c.checkExpr(f, el, vars)
			}
		}
	case *CallExpr:
		c.checkCall(f, x, vars)
	}
}

func (c *checker) checkCall(f *FuncDecl, x *CallExpr, vars map[string]bool) {
	for _, a := range x.Args {
		c.checkExpr(f, a, vars)
	}
	switch {
	case vars[x.Name]:
		c.kinds[x] = CallIndex
		if len(x.Args) < 1 || len(x.Args) > 2 {
			c.errorf(x.Pos, "%s: indexing %q needs 1 or 2 subscripts, got %d", f.Name, x.Name, len(x.Args))
		}
	case LookupBuiltin(x.Name) != nil:
		c.kinds[x] = CallBuiltin
		b := LookupBuiltin(x.Name)
		if len(x.Args) < b.MinArgs || len(x.Args) > b.MaxArgs {
			c.errorf(x.Pos, "%s: builtin %q expects %d..%d arguments, got %d",
				f.Name, x.Name, b.MinArgs, b.MaxArgs, len(x.Args))
		}
	case c.prog.Func(x.Name) != nil:
		c.kinds[x] = CallUser
		callee := c.prog.Func(x.Name)
		if len(x.Args) != len(callee.Params) {
			c.errorf(x.Pos, "%s: %q expects %d arguments, got %d", f.Name, x.Name, len(callee.Params), len(x.Args))
		}
		if len(callee.Results) == 0 {
			c.errorf(x.Pos, "%s: %q returns no value but is used in an expression", f.Name, x.Name)
		}
	default:
		c.errorf(x.Pos, "%s: undefined variable or function %q", f.Name, x.Name)
	}
}

// checkRecursion rejects call-graph cycles (WCET analysis requires an
// acyclic call graph).
func (c *checker) checkRecursion() {
	adj := make(map[string][]string)
	for _, f := range c.prog.Funcs {
		callees := map[string]bool{}
		c.collectCalls(f.Body, callees)
		var list []string
		for n := range callees {
			list = append(list, n)
		}
		sort.Strings(list)
		adj[f.Name] = list
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var cyc []string
	var dfs func(n string) bool
	dfs = func(n string) bool {
		color[n] = grey
		for _, m := range adj[n] {
			switch color[m] {
			case grey:
				cyc = append(cyc, n, m)
				return true
			case white:
				if dfs(m) {
					return true
				}
			}
		}
		color[n] = black
		return false
	}
	for _, f := range c.prog.Funcs {
		if color[f.Name] == white && dfs(f.Name) {
			c.errorf(f.Pos, "recursive call cycle involving %q and %q (forbidden for WCET analysis)", cyc[0], cyc[1])
			return
		}
	}
}

// collectCalls gathers the names of user functions called within stmts.
func (c *checker) collectCalls(stmts []Stmt, out map[string]bool) {
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch x := e.(type) {
		case *CallExpr:
			if c.prog.Func(x.Name) != nil && c.kinds[x] != CallIndex {
				out[x.Name] = true
			}
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *BinExpr:
			walkExpr(x.X)
			walkExpr(x.Y)
		case *UnExpr:
			walkExpr(x.X)
		case *RangeExpr:
			walkExpr(x.Lo)
			walkExpr(x.Hi)
			if x.Step != nil {
				walkExpr(x.Step)
			}
		case *MatrixLit:
			for _, row := range x.Rows {
				for _, el := range row {
					walkExpr(el)
				}
			}
		}
	}
	var walk func(stmts []Stmt)
	walk = func(stmts []Stmt) {
		for _, s := range stmts {
			switch st := s.(type) {
			case *AssignStmt:
				walkExpr(st.RHS)
				for _, lv := range st.LHS {
					for _, ix := range lv.Index {
						walkExpr(ix)
					}
				}
			case *ExprStmt:
				walkExpr(st.X)
			case *ForStmt:
				walkExpr(st.Lo)
				walkExpr(st.Hi)
				if st.Step != nil {
					walkExpr(st.Step)
				}
				walk(st.Body)
			case *WhileStmt:
				walkExpr(st.Cond)
				walk(st.Body)
			case *IfStmt:
				walkExpr(st.Cond)
				walk(st.Then)
				walk(st.Else)
			}
		}
	}
	walk(stmts)
}
