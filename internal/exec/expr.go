// Package exec implements the query execution engine of the FI-MPPDB
// reproduction: compiled scalar expressions, row-at-a-time (Volcano)
// operators, and vectorized fast paths over column-store batches
// (paper §II, Fig 1: "vectorized execution engine").
//
// The same operators run on a coordinator node over gathered streams and on
// data nodes over local storage; internal/cluster wires them together.
package exec

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/types"
)

// Ctx carries per-execution state: the session clock, the values bound to a
// prepared statement's parameters and the stack of outer rows for correlated
// subqueries. One Ctx is one execution: the caches a plan keeps for the
// length of a statement (uncorrelated subplans, CTE materializations)
// remember the Ctx they were filled under, so a plan re-opened under a new
// Ctx recomputes them.
type Ctx struct {
	// Now is the statement timestamp returned by now().
	Now time.Time
	// Params holds the execution's parameter values (see Param); shared
	// read-only with forked fragment contexts.
	Params []types.Datum
	// OuterRows is the stack of enclosing rows; the last element is the
	// innermost enclosing scope. Subplan evaluation pushes/pops.
	OuterRows []types.Row
}

// NewCtx returns a Ctx with the statement clock set.
func NewCtx(now time.Time) *Ctx { return &Ctx{Now: now} }

// Expr is a compiled scalar expression.
type Expr interface {
	// Eval computes the expression over row. Comparison and logic follow
	// SQL ternary semantics: NULL operands yield NULL, which conditionals
	// treat as false.
	Eval(ctx *Ctx, row types.Row) (types.Datum, error)
	// String renders a canonical form used by the learning optimizer's
	// step definitions (predicates print with qualified column names).
	String() string
}

// ---------------------------------------------------------------------------
// Leaf expressions
// ---------------------------------------------------------------------------

// Const is a literal.
type Const struct{ Value types.Datum }

// Eval implements Expr.
func (c *Const) Eval(*Ctx, types.Row) (types.Datum, error) { return c.Value, nil }

func (c *Const) String() string {
	if c.Value.Kind() == types.KindString {
		return "'" + c.Value.Str() + "'"
	}
	return c.Value.String()
}

// Param reads parameter Index of the execution: the value a prepared
// statement was bound with in place of a literal lifted out of its text.
type Param struct{ Index int }

// Eval implements Expr.
func (p *Param) Eval(ctx *Ctx, _ types.Row) (types.Datum, error) {
	if p.Index >= len(ctx.Params) {
		return types.Null, fmt.Errorf("exec: parameter %s not bound (%d given)", p, len(ctx.Params))
	}
	return ctx.Params[p.Index], nil
}

// String spells the parameter as sqlx.Param does: $1 is Index 0.
func (p *Param) String() string { return "$" + strconv.Itoa(p.Index+1) }

// AsTime reads a string value (a driver-bound time.Time arrives as one) as a
// TIMESTAMP, as types.Coerce does, where the planner compares it with one.
// The last string parsed is kept: a value is parsed once per execution, not
// per row. One that does not parse fails the statement, naming the value.
type AsTime struct {
	Value Expr
	last  atomic.Pointer[[2]types.Datum] // a string and its TIMESTAMP
}

// Eval implements Expr.
func (a *AsTime) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	v, err := a.Value.Eval(ctx, row)
	if err != nil || v.Kind() != types.KindString {
		return v, err
	}
	if p := a.last.Load(); p != nil && p[0].Str() == v.Str() {
		return p[1], nil
	}
	t, err := types.Coerce(v, types.KindTime)
	if err == nil {
		a.last.Store(&[2]types.Datum{v, t})
	}
	return t, err
}

// String prints the value: the comparison reads as it was written.
func (a *AsTime) String() string { return a.Value.String() }

// ColRef reads column Index of the current row. Name is retained for
// canonical display (qualified, upper-cased by the planner when feeding the
// plan store).
type ColRef struct {
	Index int
	Name  string
}

// Eval implements Expr.
func (c *ColRef) Eval(_ *Ctx, row types.Row) (types.Datum, error) {
	if c.Index >= len(row) {
		return types.Null, fmt.Errorf("exec: column index %d out of range (row arity %d)", c.Index, len(row))
	}
	return row[c.Index], nil
}

func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("$%d", c.Index)
}

// OuterRef reads a column from an enclosing scope's current row (correlated
// subqueries). Up is the number of scopes to climb (1 = immediate parent).
type OuterRef struct {
	Up    int
	Index int
	Name  string
}

// Eval implements Expr.
func (o *OuterRef) Eval(ctx *Ctx, _ types.Row) (types.Datum, error) {
	n := len(ctx.OuterRows)
	if o.Up <= 0 || o.Up > n {
		return types.Null, fmt.Errorf("exec: outer ref depth %d with %d outer rows", o.Up, n)
	}
	row := ctx.OuterRows[n-o.Up]
	if o.Index >= len(row) {
		return types.Null, fmt.Errorf("exec: outer column index %d out of range", o.Index)
	}
	return row[o.Index], nil
}

func (o *OuterRef) String() string {
	if o.Name != "" {
		return o.Name
	}
	return fmt.Sprintf("outer(%d,$%d)", o.Up, o.Index)
}

// ---------------------------------------------------------------------------
// Composite expressions
// ---------------------------------------------------------------------------

// BinOp is a binary operator. Op values reuse internal/sqlx's operator
// spellings ("=", "<", "+", "AND", "LIKE", "||", ...).
type BinOp struct {
	Op          string
	Left, Right Expr
}

// Eval implements Expr.
func (b *BinOp) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	switch b.Op {
	case "AND":
		return evalAnd(ctx, row, b.Left, b.Right)
	case "OR":
		return evalOr(ctx, row, b.Left, b.Right)
	}
	l, err := b.Left.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	r, err := b.Right.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := types.Compare(l, r)
		if err != nil {
			return types.Null, err
		}
		var v bool
		switch b.Op {
		case "=":
			v = c == 0
		case "<>":
			v = c != 0
		case "<":
			v = c < 0
		case "<=":
			v = c <= 0
		case ">":
			v = c > 0
		case ">=":
			v = c >= 0
		}
		return types.NewBool(v), nil
	case "+", "-", "*", "/", "%":
		return evalArith(b.Op, l, r)
	case "LIKE":
		if l.Kind() != types.KindString || r.Kind() != types.KindString {
			return types.Null, fmt.Errorf("exec: LIKE requires strings, got %s and %s", l.Kind(), r.Kind())
		}
		return types.NewBool(likeMatch(l.Str(), r.Str())), nil
	case "||":
		ls, err := types.Coerce(l, types.KindString)
		if err != nil {
			return types.Null, err
		}
		rs, err := types.Coerce(r, types.KindString)
		if err != nil {
			return types.Null, err
		}
		return types.NewString(ls.Str() + rs.Str()), nil
	default:
		return types.Null, fmt.Errorf("exec: unknown binary operator %q", b.Op)
	}
}

func (b *BinOp) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

func evalAnd(ctx *Ctx, row types.Row, le, re Expr) (types.Datum, error) {
	l, err := le.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	// SQL three-valued logic: false AND x = false even if x is NULL.
	if !l.IsNull() && l.Kind() == types.KindBool && !l.Bool() {
		return types.NewBool(false), nil
	}
	r, err := re.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if !r.IsNull() && r.Kind() == types.KindBool && !r.Bool() {
		return types.NewBool(false), nil
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	return types.NewBool(l.Bool() && r.Bool()), nil
}

func evalOr(ctx *Ctx, row types.Row, le, re Expr) (types.Datum, error) {
	l, err := le.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if !l.IsNull() && l.Kind() == types.KindBool && l.Bool() {
		return types.NewBool(true), nil
	}
	r, err := re.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if !r.IsNull() && r.Kind() == types.KindBool && r.Bool() {
		return types.NewBool(true), nil
	}
	if l.IsNull() || r.IsNull() {
		return types.Null, nil
	}
	return types.NewBool(l.Bool() || r.Bool()), nil
}

func evalArith(op string, l, r types.Datum) (types.Datum, error) {
	lk, rk := l.Kind(), r.Kind()
	// Timestamp arithmetic: ts - ts = BIGINT nanos; ts ± BIGINT = ts.
	if lk == types.KindTime || rk == types.KindTime {
		return evalTimeArith(op, l, r)
	}
	bothInt := lk == types.KindInt && rk == types.KindInt
	if bothInt {
		a, b := l.Int(), r.Int()
		switch op {
		case "+":
			return types.NewInt(a + b), nil
		case "-":
			return types.NewInt(a - b), nil
		case "*":
			return types.NewInt(a * b), nil
		case "/":
			if b == 0 {
				return types.Null, errors.New("exec: division by zero")
			}
			return types.NewInt(a / b), nil
		case "%":
			if b == 0 {
				return types.Null, errors.New("exec: division by zero")
			}
			return types.NewInt(a % b), nil
		}
	}
	if (lk == types.KindInt || lk == types.KindFloat) && (rk == types.KindInt || rk == types.KindFloat) {
		a, b := l.Float(), r.Float()
		switch op {
		case "+":
			return types.NewFloat(a + b), nil
		case "-":
			return types.NewFloat(a - b), nil
		case "*":
			return types.NewFloat(a * b), nil
		case "/":
			if b == 0 {
				return types.Null, errors.New("exec: division by zero")
			}
			return types.NewFloat(a / b), nil
		case "%":
			return types.Null, errors.New("exec: %% requires integers")
		}
	}
	if op == "+" && lk == types.KindString && rk == types.KindString {
		return types.NewString(l.Str() + r.Str()), nil
	}
	return types.Null, fmt.Errorf("exec: cannot apply %s to %s and %s", op, lk, rk)
}

func evalTimeArith(op string, l, r types.Datum) (types.Datum, error) {
	switch {
	case l.Kind() == types.KindTime && r.Kind() == types.KindTime && op == "-":
		return types.NewInt(l.Time().UnixNano() - r.Time().UnixNano()), nil
	case l.Kind() == types.KindTime && r.Kind() == types.KindInt:
		switch op {
		case "+":
			return types.NewTime(l.Time().Add(time.Duration(r.Int()))), nil
		case "-":
			return types.NewTime(l.Time().Add(-time.Duration(r.Int()))), nil
		}
	case l.Kind() == types.KindInt && r.Kind() == types.KindTime && op == "+":
		return types.NewTime(r.Time().Add(time.Duration(l.Int()))), nil
	}
	return types.Null, fmt.Errorf("exec: cannot apply %s to %s and %s", op, l.Kind(), r.Kind())
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// Not negates a boolean expression (NULL stays NULL).
type Not struct{ Child Expr }

// Eval implements Expr.
func (n *Not) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	v, err := n.Child.Eval(ctx, row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	if v.Kind() != types.KindBool {
		return types.Null, fmt.Errorf("exec: NOT requires BOOL, got %s", v.Kind())
	}
	return types.NewBool(!v.Bool()), nil
}

func (n *Not) String() string { return "(NOT " + n.Child.String() + ")" }

// Neg is unary minus.
type Neg struct{ Child Expr }

// Eval implements Expr.
func (n *Neg) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	v, err := n.Child.Eval(ctx, row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	switch v.Kind() {
	case types.KindInt:
		return types.NewInt(-v.Int()), nil
	case types.KindFloat:
		return types.NewFloat(-v.Float()), nil
	default:
		return types.Null, fmt.Errorf("exec: cannot negate %s", v.Kind())
	}
}

func (n *Neg) String() string { return "(-" + n.Child.String() + ")" }

// IsNullExpr tests for NULL.
type IsNullExpr struct {
	Child Expr
	Not   bool
}

// Eval implements Expr.
func (e *IsNullExpr) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	v, err := e.Child.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	return types.NewBool(v.IsNull() != e.Not), nil
}

func (e *IsNullExpr) String() string {
	if e.Not {
		return "(" + e.Child.String() + " IS NOT NULL)"
	}
	return "(" + e.Child.String() + " IS NULL)"
}

// InListExpr tests membership in a literal list.
type InListExpr struct {
	Child Expr
	List  []Expr
	Not   bool
}

// Eval implements Expr.
func (e *InListExpr) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	v, err := e.Child.Eval(ctx, row)
	if err != nil {
		return types.Null, err
	}
	if v.IsNull() {
		return types.Null, nil
	}
	sawNull := false
	for _, item := range e.List {
		iv, err := item.Eval(ctx, row)
		if err != nil {
			return types.Null, err
		}
		if iv.IsNull() {
			sawNull = true
			continue
		}
		c, err := types.Compare(v, iv)
		if err != nil {
			return types.Null, err
		}
		if c == 0 {
			return types.NewBool(!e.Not), nil
		}
	}
	if sawNull {
		return types.Null, nil
	}
	return types.NewBool(e.Not), nil
}

func (e *InListExpr) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	op := " IN "
	if e.Not {
		op = " NOT IN "
	}
	return "(" + e.Child.String() + op + "(" + strings.Join(parts, ",") + "))"
}

// BetweenExpr is lo <= x <= hi.
type BetweenExpr struct {
	Child, Lo, Hi Expr
	Not           bool
}

// Eval implements Expr.
func (e *BetweenExpr) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	v, err := e.Child.Eval(ctx, row)
	if err != nil || v.IsNull() {
		return types.Null, err
	}
	lo, err := e.Lo.Eval(ctx, row)
	if err != nil || lo.IsNull() {
		return types.Null, err
	}
	hi, err := e.Hi.Eval(ctx, row)
	if err != nil || hi.IsNull() {
		return types.Null, err
	}
	cl, err := types.Compare(v, lo)
	if err != nil {
		return types.Null, err
	}
	ch, err := types.Compare(v, hi)
	if err != nil {
		return types.Null, err
	}
	in := cl >= 0 && ch <= 0
	return types.NewBool(in != e.Not), nil
}

func (e *BetweenExpr) String() string {
	op := " BETWEEN "
	if e.Not {
		op = " NOT BETWEEN "
	}
	return "(" + e.Child.String() + op + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// CaseWhen implements both searched and operand CASE.
type CaseWhen struct {
	Operand Expr // nil for searched form
	Whens   []Expr
	Thens   []Expr
	Else    Expr // nil -> NULL
}

// Eval implements Expr.
func (e *CaseWhen) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	var op types.Datum
	if e.Operand != nil {
		var err error
		op, err = e.Operand.Eval(ctx, row)
		if err != nil {
			return types.Null, err
		}
	}
	for i, w := range e.Whens {
		wv, err := w.Eval(ctx, row)
		if err != nil {
			return types.Null, err
		}
		matched := false
		if e.Operand != nil {
			if !wv.IsNull() && !op.IsNull() {
				c, err := types.Compare(op, wv)
				if err != nil {
					return types.Null, err
				}
				matched = c == 0
			}
		} else {
			matched = !wv.IsNull() && wv.Kind() == types.KindBool && wv.Bool()
		}
		if matched {
			return e.Thens[i].Eval(ctx, row)
		}
	}
	if e.Else != nil {
		return e.Else.Eval(ctx, row)
	}
	return types.Null, nil
}

func (e *CaseWhen) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if e.Operand != nil {
		sb.WriteString(" " + e.Operand.String())
	}
	for i := range e.Whens {
		sb.WriteString(" WHEN " + e.Whens[i].String() + " THEN " + e.Thens[i].String())
	}
	if e.Else != nil {
		sb.WriteString(" ELSE " + e.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// Func is a scalar function call. Supported: now, abs, lower, upper,
// length, coalesce, floor, ceil, nullif, greatest, least.
type Func struct {
	Name string
	Args []Expr
}

// Eval implements Expr.
func (f *Func) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	switch f.Name {
	case "now", "current_timestamp", "statement_timestamp":
		return types.NewTime(ctx.Now), nil
	case "coalesce":
		for _, a := range f.Args {
			v, err := a.Eval(ctx, row)
			if err != nil {
				return types.Null, err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return types.Null, nil
	}
	args := make([]types.Datum, len(f.Args))
	for i, a := range f.Args {
		v, err := a.Eval(ctx, row)
		if err != nil {
			return types.Null, err
		}
		args[i] = v
	}
	switch f.Name {
	case "abs":
		if err := arity(f, args, 1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		switch args[0].Kind() {
		case types.KindInt:
			v := args[0].Int()
			if v < 0 {
				v = -v
			}
			return types.NewInt(v), nil
		case types.KindFloat:
			v := args[0].Float()
			if v < 0 {
				v = -v
			}
			return types.NewFloat(v), nil
		}
		return types.Null, fmt.Errorf("exec: abs of %s", args[0].Kind())
	case "lower", "upper", "length":
		if err := arity(f, args, 1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		s, err := types.Coerce(args[0], types.KindString)
		if err != nil {
			return types.Null, err
		}
		switch f.Name {
		case "lower":
			return types.NewString(strings.ToLower(s.Str())), nil
		case "upper":
			return types.NewString(strings.ToUpper(s.Str())), nil
		default:
			return types.NewInt(int64(len(s.Str()))), nil
		}
	case "floor", "ceil":
		if err := arity(f, args, 1); err != nil {
			return types.Null, err
		}
		if args[0].IsNull() {
			return types.Null, nil
		}
		v := args[0].Float()
		n := int64(v)
		if f.Name == "floor" && float64(n) > v {
			n--
		}
		if f.Name == "ceil" && float64(n) < v {
			n++
		}
		return types.NewInt(n), nil
	case "nullif":
		if err := arity(f, args, 2); err != nil {
			return types.Null, err
		}
		if types.Equal(args[0], args[1]) {
			return types.Null, nil
		}
		return args[0], nil
	case "greatest", "least":
		if len(args) == 0 {
			return types.Null, fmt.Errorf("exec: %s needs arguments", f.Name)
		}
		best := args[0]
		for _, a := range args[1:] {
			if a.IsNull() || best.IsNull() {
				return types.Null, nil
			}
			c, err := types.Compare(a, best)
			if err != nil {
				return types.Null, err
			}
			if (f.Name == "greatest" && c > 0) || (f.Name == "least" && c < 0) {
				best = a
			}
		}
		return best, nil
	default:
		return types.Null, fmt.Errorf("exec: unknown function %q", f.Name)
	}
}

func arity(f *Func, args []types.Datum, n int) error {
	if len(args) != n {
		return fmt.Errorf("exec: %s expects %d argument(s), got %d", f.Name, n, len(args))
	}
	return nil
}

func (f *Func) String() string {
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	return f.Name + "(" + strings.Join(parts, ",") + ")"
}

// WalkExpr visits e and its children in pre-order; the visitor returns
// false to skip a node's children. Subplan operators are visited but not
// descended into.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *BinOp:
		WalkExpr(x.Left, visit)
		WalkExpr(x.Right, visit)
	case *Not:
		WalkExpr(x.Child, visit)
	case *Neg:
		WalkExpr(x.Child, visit)
	case *AsTime:
		WalkExpr(x.Value, visit)
	case *IsNullExpr:
		WalkExpr(x.Child, visit)
	case *InListExpr:
		WalkExpr(x.Child, visit)
		for _, item := range x.List {
			WalkExpr(item, visit)
		}
	case *BetweenExpr:
		WalkExpr(x.Child, visit)
		WalkExpr(x.Lo, visit)
		WalkExpr(x.Hi, visit)
	case *Func:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	case *CaseWhen:
		WalkExpr(x.Operand, visit)
		for i := range x.Whens {
			WalkExpr(x.Whens[i], visit)
			WalkExpr(x.Thens[i], visit)
		}
		WalkExpr(x.Else, visit)
	case *Subplan:
		WalkExpr(x.Needle, visit)
	}
}

// IsPartitionPure reports whether the expression can be evaluated
// independently on any partition's rows: no outer-scope references and no
// subplans (which may carry shared caches or touch other tables).
func IsPartitionPure(e Expr) bool {
	pure := true
	WalkExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *OuterRef, *Subplan:
			pure = false
			return false
		}
		return true
	})
	return pure
}

// Subplan evaluates a subquery in expression position.
type SubplanMode uint8

// Subplan modes.
const (
	// SubplanScalar expects at most one row / one column; zero rows yield
	// NULL, more than one row is an error.
	SubplanScalar SubplanMode = iota
	// SubplanInAny tests whether Needle equals any first-column value.
	SubplanInAny
)

// Subplan is a compiled subquery expression. Correlated column references
// inside Plan are OuterRef nodes resolved against ctx.OuterRows.
type Subplan struct {
	Plan       Operator
	Mode       SubplanMode
	Needle     Expr // for SubplanInAny
	NotIn      bool
	Correlated bool

	// cache is the uncorrelated result, valid for the execution cachedIn.
	cachedIn *Ctx
	cache    []types.Row
}

// Eval implements Expr.
func (s *Subplan) Eval(ctx *Ctx, row types.Row) (types.Datum, error) {
	rows, err := s.rows(ctx, row)
	if err != nil {
		return types.Null, err
	}
	switch s.Mode {
	case SubplanScalar:
		if len(rows) == 0 {
			return types.Null, nil
		}
		if len(rows) > 1 {
			return types.Null, errors.New("exec: scalar subquery returned more than one row")
		}
		if len(rows[0]) != 1 {
			return types.Null, errors.New("exec: scalar subquery must return one column")
		}
		return rows[0][0], nil
	case SubplanInAny:
		needle, err := s.Needle.Eval(ctx, row)
		if err != nil {
			return types.Null, err
		}
		if needle.IsNull() {
			return types.Null, nil
		}
		sawNull := false
		for _, r := range rows {
			if r[0].IsNull() {
				sawNull = true
				continue
			}
			c, err := types.Compare(needle, r[0])
			if err != nil {
				return types.Null, err
			}
			if c == 0 {
				return types.NewBool(!s.NotIn), nil
			}
		}
		if sawNull {
			return types.Null, nil
		}
		return types.NewBool(s.NotIn), nil
	default:
		return types.Null, errors.New("exec: bad subplan mode")
	}
}

func (s *Subplan) rows(ctx *Ctx, row types.Row) ([]types.Row, error) {
	if !s.Correlated && s.cachedIn == ctx {
		return s.cache, nil
	}
	ctx.OuterRows = append(ctx.OuterRows, row)
	defer func() { ctx.OuterRows = ctx.OuterRows[:len(ctx.OuterRows)-1] }()
	rows, err := Collect(ctx, s.Plan)
	if err != nil {
		return nil, err
	}
	if !s.Correlated {
		s.cachedIn, s.cache = ctx, rows
	}
	return rows, nil
}

func (s *Subplan) String() string { return "(subquery)" }
