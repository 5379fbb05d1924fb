package sqlx

import (
	"fmt"
	"strings"

	"repro/internal/types"
)

// Statement is any parsed SQL statement.
type Statement interface {
	stmt()
	String() string
}

// Expr is any scalar expression node.
type Expr interface {
	expr()
	String() string
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name string
	Kind types.Kind
}

// StorageKind selects the table's physical layout (§II: hybrid row-column
// storage).
type StorageKind uint8

// Storage layouts.
const (
	StorageRow StorageKind = iota
	StorageColumn
)

func (s StorageKind) String() string {
	if s == StorageColumn {
		return "COLUMN"
	}
	return "ROW"
}

// CreateTable is CREATE TABLE ... [DISTRIBUTE BY HASH(col) | REPLICATION]
// [USING ROW|COLUMN].
type CreateTable struct {
	Name        string
	IfNotExists bool
	Columns     []ColumnDef
	PrimaryKey  []string
	// DistKey is the hash-distribution column; empty means replicated to
	// every data node (small dimension tables).
	DistKey    string
	Replicated bool
	Storage    StorageKind
}

func (*CreateTable) stmt() {}

func (c *CreateTable) String() string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(c.Name)
	sb.WriteString(" (")
	for i, col := range c.Columns {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(col.Name + " " + col.Kind.String())
	}
	if len(c.PrimaryKey) > 0 {
		sb.WriteString(", PRIMARY KEY (" + strings.Join(c.PrimaryKey, ", ") + ")")
	}
	sb.WriteString(")")
	if c.DistKey != "" {
		sb.WriteString(" DISTRIBUTE BY HASH(" + c.DistKey + ")")
	} else if c.Replicated {
		sb.WriteString(" DISTRIBUTE BY REPLICATION")
	}
	sb.WriteString(" USING " + c.Storage.String())
	return sb.String()
}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

func (d *DropTable) String() string {
	if d.IfExists {
		return "DROP TABLE IF EXISTS " + d.Name
	}
	return "DROP TABLE " + d.Name
}

// Insert is INSERT INTO name [(cols)] VALUES (...),(...) | INSERT ... select.
type Insert struct {
	Table   string
	Columns []string
	Rows    [][]Expr
	Query   *Select // non-nil for INSERT INTO ... SELECT
}

func (*Insert) stmt() {}

func (i *Insert) String() string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO " + i.Table)
	if len(i.Columns) > 0 {
		sb.WriteString(" (" + strings.Join(i.Columns, ", ") + ")")
	}
	if i.Query != nil {
		sb.WriteString(" " + i.Query.String())
		return sb.String()
	}
	sb.WriteString(" VALUES ")
	for r, row := range i.Rows {
		if r > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("(")
		for c, e := range row {
			if c > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(e.String())
		}
		sb.WriteString(")")
	}
	return sb.String()
}

// Assignment is one SET col = expr clause.
type Assignment struct {
	Column string
	Value  Expr
}

// Update is UPDATE name SET ... [WHERE ...].
type Update struct {
	Table string
	Set   []Assignment
	Where Expr
}

func (*Update) stmt() {}

func (u *Update) String() string {
	var sb strings.Builder
	sb.WriteString("UPDATE " + u.Table + " SET ")
	for i, a := range u.Set {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(a.Column + " = " + a.Value.String())
	}
	if u.Where != nil {
		sb.WriteString(" WHERE " + u.Where.String())
	}
	return sb.String()
}

// Delete is DELETE FROM name [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

func (d *Delete) String() string {
	s := "DELETE FROM " + d.Table
	if d.Where != nil {
		s += " WHERE " + d.Where.String()
	}
	return s
}

// TxControl is BEGIN / COMMIT / ROLLBACK.
type TxControl struct {
	Verb string // "BEGIN", "COMMIT", "ROLLBACK"
}

func (*TxControl) stmt() {}

func (t *TxControl) String() string { return t.Verb }

// Explain wraps a statement for plan display.
type Explain struct {
	Stmt    Statement
	Analyze bool
}

func (*Explain) stmt() {}

func (e *Explain) String() string {
	if e.Analyze {
		return "EXPLAIN ANALYZE " + e.Stmt.String()
	}
	return "EXPLAIN " + e.Stmt.String()
}

// ---------------------------------------------------------------------------
// SELECT
// ---------------------------------------------------------------------------

// CTE is one WITH entry: name [(cols)] AS (select).
type CTE struct {
	Name    string
	Columns []string
	Query   *Select
}

// SelectItem is one projection target.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool   // SELECT * or t.*
	Table string // qualifier for t.*
}

func (s SelectItem) String() string {
	if s.Star {
		if s.Table != "" {
			return s.Table + ".*"
		}
		return "*"
	}
	if s.Alias != "" {
		return s.Expr.String() + " AS " + s.Alias
	}
	return s.Expr.String()
}

// JoinKind enumerates join types.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

func (k JoinKind) String() string {
	switch k {
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// TableRef is a FROM-clause item: base table, subquery, table function, or
// join tree.
type TableRef interface {
	tableRef()
	String() string
}

// BaseTable references a stored table or CTE by name.
type BaseTable struct {
	Name  string
	Alias string
}

func (*BaseTable) tableRef() {}

func (b *BaseTable) String() string {
	if b.Alias != "" {
		return b.Name + " AS " + b.Alias
	}
	return b.Name
}

// SubqueryRef is (select) AS alias.
type SubqueryRef struct {
	Query *Select
	Alias string
}

func (*SubqueryRef) tableRef() {}

func (s *SubqueryRef) String() string { return "(" + s.Query.String() + ") AS " + s.Alias }

// TableFunc is a multi-model table expression (§II-B Example 1):
// gtimeseries(select ...), an ordinary query (a time series is a table)
// that the planner sorts on its first TIMESTAMP column, or
// ggraph('<traversal>') / gspatial('<table>.<query>'), whose argument is a
// string value — a literal, or the parameter it was lifted into — that
// internal/graph / internal/spatial parse (ParseChain) and compile into a
// query block.
type TableFunc struct {
	Name  string  // "gtimeseries" | "ggraph" | "gspatial"
	Query *Select // for gtimeseries: the inner relational query
	Arg   Expr    // for ggraph and gspatial: a string *Literal or *Param
	Alias string
}

func (*TableFunc) tableRef() {}

func (t *TableFunc) String() string {
	var arg string
	switch {
	case t.Query != nil:
		arg = t.Query.String()
	case t.Arg != nil:
		arg = t.Arg.String()
	}
	s := t.Name + "(" + arg + ")"
	if t.Alias != "" {
		s += " AS " + t.Alias
	}
	return s
}

// JoinRef is an explicit join tree node.
type JoinRef struct {
	Kind        JoinKind
	Left, Right TableRef
	On          Expr
}

func (*JoinRef) tableRef() {}

func (j *JoinRef) String() string {
	s := j.Left.String() + " " + j.Kind.String() + " " + j.Right.String()
	if j.On != nil {
		s += " ON " + j.On.String()
	}
	return s
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SetOp is one UNION [ALL] arm chained onto a Select.
type SetOp struct {
	All   bool
	Query *Select
}

// Select is a full query block, possibly with UNION arms (SetOps). ORDER
// BY / LIMIT / OFFSET apply to the whole union result.
type Select struct {
	CTEs     []CTE
	Distinct bool
	Items    []SelectItem
	// From holds comma-separated FROM items (implicit cross joins);
	// explicit JOINs are JoinRef nodes inside.
	From    []TableRef
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   int64 // -1 when absent
	Offset  int64
	// SetOps chains UNION [ALL] arms evaluated left to right.
	SetOps []SetOp
}

func (*Select) stmt() {}

func (s *Select) String() string {
	var sb strings.Builder
	if len(s.CTEs) > 0 {
		sb.WriteString("WITH ")
		for i, c := range s.CTEs {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(c.Name)
			if len(c.Columns) > 0 {
				sb.WriteString(" (" + strings.Join(c.Columns, ", ") + ")")
			}
			sb.WriteString(" AS (" + c.Query.String() + ")")
		}
		sb.WriteString(" ")
	}
	sb.WriteString("SELECT ")
	if s.Distinct {
		sb.WriteString("DISTINCT ")
	}
	for i, it := range s.Items {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(it.String())
	}
	if len(s.From) > 0 {
		sb.WriteString(" FROM ")
		for i, f := range s.From {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(f.String())
		}
	}
	if s.Where != nil {
		sb.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		sb.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.Having != nil {
		sb.WriteString(" HAVING " + s.Having.String())
	}
	for _, so := range s.SetOps {
		if so.All {
			sb.WriteString(" UNION ALL ")
		} else {
			sb.WriteString(" UNION ")
		}
		sb.WriteString(so.Query.String())
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Expr.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		sb.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		sb.WriteString(fmt.Sprintf(" LIMIT %d", s.Limit))
	}
	if s.Offset > 0 {
		sb.WriteString(fmt.Sprintf(" OFFSET %d", s.Offset))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Literal is a constant datum.
type Literal struct {
	Value types.Datum
}

func (*Literal) expr() {}

func (l *Literal) String() string {
	if l.Value.Kind() == types.KindString {
		return "'" + strings.ReplaceAll(l.Value.Str(), "'", "''") + "'"
	}
	return l.Value.String()
}

// ColumnRef is a possibly-qualified column reference.
type ColumnRef struct {
	Table  string // optional qualifier
	Column string
}

func (*ColumnRef) expr() {}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

// BinaryOp operators.
const (
	OpEq     = "="
	OpNe     = "<>"
	OpLt     = "<"
	OpLe     = "<="
	OpGt     = ">"
	OpGe     = ">="
	OpAdd    = "+"
	OpSub    = "-"
	OpMul    = "*"
	OpDiv    = "/"
	OpMod    = "%"
	OpAnd    = "AND"
	OpOr     = "OR"
	OpLike   = "LIKE"
	OpConcat = "||"
)

// BinaryOp is a binary expression.
type BinaryOp struct {
	Op          string
	Left, Right Expr
}

func (*BinaryOp) expr() {}

func (b *BinaryOp) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

// UnaryOp is NOT x or -x.
type UnaryOp struct {
	Op    string // "NOT" | "-"
	Child Expr
}

func (*UnaryOp) expr() {}

func (u *UnaryOp) String() string { return "(" + u.Op + " " + u.Child.String() + ")" }

// IsNull is x IS [NOT] NULL.
type IsNull struct {
	Child Expr
	Not   bool
}

func (*IsNull) expr() {}

func (i *IsNull) String() string {
	if i.Not {
		return "(" + i.Child.String() + " IS NOT NULL)"
	}
	return "(" + i.Child.String() + " IS NULL)"
}

// InList is x [NOT] IN (e1, e2, ...).
type InList struct {
	Child Expr
	List  []Expr
	Not   bool
}

func (*InList) expr() {}

func (i *InList) String() string {
	parts := make([]string, len(i.List))
	for j, e := range i.List {
		parts[j] = e.String()
	}
	op := " IN "
	if i.Not {
		op = " NOT IN "
	}
	return "(" + i.Child.String() + op + "(" + strings.Join(parts, ", ") + "))"
}

// Between is x BETWEEN lo AND hi.
type Between struct {
	Child, Lo, Hi Expr
	Not           bool
}

func (*Between) expr() {}

func (b *Between) String() string {
	op := " BETWEEN "
	if b.Not {
		op = " NOT BETWEEN "
	}
	return "(" + b.Child.String() + op + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

// FuncCall is a scalar or aggregate function call. Star marks count(*).
type FuncCall struct {
	Name     string
	Args     []Expr
	Star     bool
	Distinct bool
}

func (*FuncCall) expr() {}

func (f *FuncCall) String() string {
	if f.Star {
		return strings.ToLower(f.Name) + "(*)"
	}
	parts := make([]string, len(f.Args))
	for i, a := range f.Args {
		parts[i] = a.String()
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return strings.ToLower(f.Name) + "(" + d + strings.Join(parts, ", ") + ")"
}

// Subquery is a scalar subquery in an expression position.
type Subquery struct {
	Query *Select
}

func (*Subquery) expr() {}

func (s *Subquery) String() string { return "(" + s.Query.String() + ")" }

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []Expr
	Thens   []Expr
	Else    Expr
}

func (*CaseExpr) expr() {}

func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteString(" " + c.Operand.String())
	}
	for i := range c.Whens {
		sb.WriteString(" WHEN " + c.Whens[i].String() + " THEN " + c.Thens[i].String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

// IntervalLit is INTERVAL '<n> <unit>' rendered as a duration in
// nanoseconds; it evaluates to a BIGINT so timestamp arithmetic stays in
// the integer domain.
type IntervalLit struct {
	Nanos int64
	Text  string // original text for display
}

func (*IntervalLit) expr() {}

func (i *IntervalLit) String() string { return "INTERVAL '" + i.Text + "'" }

// AggregateFuncs lists recognized aggregate function names (lower-case).
var AggregateFuncs = map[string]bool{
	"count": true, "sum": true, "avg": true, "min": true, "max": true,
}

// IsAggregate reports whether the expression tree contains an aggregate
// function call at its top level or anywhere below (excluding subqueries).
func IsAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncCall); ok && AggregateFuncs[strings.ToLower(f.Name)] {
			found = true
			return false
		}
		if _, ok := x.(*Subquery); ok {
			return false
		}
		return true
	})
	return found
}

// HasSubquery reports whether the expression tree holds a subquery.
func HasSubquery(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		_, isSub := x.(*Subquery)
		found = found || isSub
		return !found
	})
	return found
}

// SplitConjuncts flattens an expression into its top-level AND conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*BinaryOp); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.Left), SplitConjuncts(b.Right)...)
	}
	return []Expr{e}
}

// WalkExpr visits e and its children in pre-order. The visitor returns
// false to skip a node's children.
func WalkExpr(e Expr, visit func(Expr) bool) {
	if e == nil || !visit(e) {
		return
	}
	switch x := e.(type) {
	case *BinaryOp:
		WalkExpr(x.Left, visit)
		WalkExpr(x.Right, visit)
	case *UnaryOp:
		WalkExpr(x.Child, visit)
	case *IsNull:
		WalkExpr(x.Child, visit)
	case *InList:
		WalkExpr(x.Child, visit)
		for _, c := range x.List {
			WalkExpr(c, visit)
		}
	case *Between:
		WalkExpr(x.Child, visit)
		WalkExpr(x.Lo, visit)
		WalkExpr(x.Hi, visit)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExpr(a, visit)
		}
	case *CaseExpr:
		WalkExpr(x.Operand, visit)
		for i := range x.Whens {
			WalkExpr(x.Whens[i], visit)
			WalkExpr(x.Thens[i], visit)
		}
		WalkExpr(x.Else, visit)
	}
}
