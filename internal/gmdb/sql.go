package gmdb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/exec"
	"repro/internal/gmdb/schema"
	"repro/internal/plan"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// SQLSession is GMDB's relational surface (paper Fig 7: the driver offers
// a KV interface of the tree model, a SQL interface of the relational
// model, and pub/sub). Each registered object type appears as a table of
// its root-record scalar fields, keyed by the primary key; the session is
// bound to one schema version, and reads convert on the fly exactly like
// the KV path.
//
// The supported subset mirrors GMDB's ("covers a subset of the ANSI SQL —
// only those needed for the use cases"):
//
//	SELECT <fields|*> FROM <type> [WHERE <pk> = '<key>' | <scalar preds>]
//	INSERT INTO <type> (f, ...) VALUES (...)        -- pk required
//	UPDATE <type> SET f = v, ... WHERE <pk> = '<key>'
//	DELETE FROM <type> WHERE <pk> = '<key>'
//
// Nested record arrays are not addressable from SQL (use the KV/delta
// API); transactions remain single-object.
type SQLSession struct {
	store   *Store
	typ     string
	version int
	sc      *schema.Schema
	// scalarCols maps output column -> root field index.
	scalarCols []int
	tblSchema  *types.Schema
	scope      *plan.Scope // tblSchema as the expression compiler binds it
}

// NewSQLSession opens a SQL session over one object type at one schema
// version.
func (s *Store) NewSQLSession(typ string, version int) (*SQLSession, error) {
	sc, ok := s.registry.Get(typ, version)
	if !ok {
		return nil, fmt.Errorf("gmdb: schema %s v%d is not registered", typ, version)
	}
	sess := &SQLSession{store: s, typ: typ, version: version, sc: sc}
	var cols []types.Column
	for i, f := range sc.Root.Fields {
		if f.Kind == schema.RecordArray {
			continue
		}
		kind := types.KindString
		switch f.Kind {
		case schema.Number:
			kind = types.KindFloat
		case schema.Bool:
			kind = types.KindBool
		}
		cols = append(cols, types.Column{Name: strings.ToLower(f.Name), Kind: kind})
		sess.scalarCols = append(sess.scalarCols, i)
	}
	sess.tblSchema = &types.Schema{Columns: cols}
	sess.scope = plan.TableScope(&plan.TableMeta{Name: typ, Schema: sess.tblSchema}, strings.ToLower(typ))
	return sess, nil
}

// Exec parses and runs one GMDB SQL statement.
func (s *SQLSession) Exec(sql string) (*SQLResult, error) {
	stmt, err := sqlx.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch st := stmt.(type) {
	case *sqlx.Select:
		return s.execSelect(st)
	case *sqlx.Insert:
		return s.execInsert(st)
	case *sqlx.Update:
		return s.execUpdate(st)
	case *sqlx.Delete:
		return s.execDelete(st)
	default:
		return nil, fmt.Errorf("gmdb: unsupported SQL statement %T (single-object KV store)", stmt)
	}
}

// SQLResult is the outcome of one GMDB SQL statement.
type SQLResult struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int
}

func (s *SQLSession) checkTable(name string) error {
	if !strings.EqualFold(name, s.typ) {
		return fmt.Errorf("gmdb: unknown table %q (session is bound to %q)", name, s.typ)
	}
	return nil
}

// objectRow projects an object's scalar root fields.
func (s *SQLSession) objectRow(o *schema.Object) types.Row {
	row := make(types.Row, len(s.scalarCols))
	for i, fi := range s.scalarCols {
		if fi < len(o.Root.Values) {
			row[i] = o.Root.Values[fi].Scalar
		}
	}
	return row
}

// keyFromWhere extracts a `pk = literal` equality from the WHERE clause;
// remaining conjuncts return as a residual predicate source.
func (s *SQLSession) keyFromWhere(where sqlx.Expr) (string, bool) {
	for _, conj := range sqlx.SplitConjuncts(where) {
		col, op, val, ok := sqlx.MatchColumnValue(conj)
		if !ok || op != sqlx.OpEq || !strings.EqualFold(col.Column, s.sc.PrimaryKey) {
			continue
		}
		if key, ok := sqlx.ValueOf(val, nil); ok {
			return key.String(), true
		}
	}
	return "", false
}

// compilePred compiles a WHERE clause against the scalar table schema with
// the engine's expression compiler. GMDB has no joins or subqueries: there
// is no catalog for one to plan against.
func (s *SQLSession) compilePred(where sqlx.Expr) (exec.Expr, error) {
	if where == nil {
		return nil, nil
	}
	if sqlx.HasSubquery(where) {
		return nil, fmt.Errorf("gmdb: subqueries are not supported (single-object KV store)")
	}
	return new(plan.Planner).CompileScalar(where, s.scope)
}

func (s *SQLSession) execSelect(sel *sqlx.Select) (*SQLResult, error) {
	if len(sel.From) != 1 || len(sel.CTEs) > 0 || len(sel.GroupBy) > 0 || sel.Having != nil || len(sel.SetOps) > 0 {
		return nil, fmt.Errorf("gmdb: SELECT supports a single table, no grouping")
	}
	if sel.Distinct || len(sel.OrderBy) > 0 || sel.Limit >= 0 || sel.Offset > 0 {
		return nil, fmt.Errorf("gmdb: DISTINCT, ORDER BY, LIMIT and OFFSET are not supported (dedupe, sort and trim client-side)")
	}
	bt, ok := sel.From[0].(*sqlx.BaseTable)
	if !ok {
		return nil, fmt.Errorf("gmdb: FROM must name the object type")
	}
	if err := s.checkTable(bt.Name); err != nil {
		return nil, err
	}
	// Projection.
	var outIdx []int
	var outNames []string
	for _, it := range sel.Items {
		if it.Star {
			for i, c := range s.tblSchema.Columns {
				outIdx = append(outIdx, i)
				outNames = append(outNames, c.Name)
			}
			continue
		}
		cr, ok := it.Expr.(*sqlx.ColumnRef)
		if !ok {
			return nil, fmt.Errorf("gmdb: SELECT list supports plain columns, got %s", it.Expr)
		}
		i := s.tblSchema.ColumnIndex(cr.Column)
		if i < 0 {
			return nil, fmt.Errorf("gmdb: unknown column %q", cr.Column)
		}
		outIdx = append(outIdx, i)
		name := it.Alias
		if name == "" {
			name = strings.ToLower(cr.Column)
		}
		outNames = append(outNames, name)
	}

	pred, err := s.compilePred(sel.Where)
	if err != nil {
		return nil, err
	}
	ctx := exec.NewCtx(timeNow())

	// Fast path: primary-key point lookup.
	var candidates []types.Row
	if key, ok := s.keyFromWhere(sel.Where); ok {
		obj, err := s.store.Get(key, s.version)
		if err == nil {
			candidates = append(candidates, s.objectRow(obj))
		}
	} else {
		rows, err := s.scanAll()
		if err != nil {
			return nil, err
		}
		candidates = rows
	}

	res := &SQLResult{Columns: outNames}
	for _, row := range candidates {
		if pred != nil {
			ok, err := exec.EvalBool(pred, ctx, row)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out := make(types.Row, len(outIdx))
		for i, j := range outIdx {
			out[i] = row[j]
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

// scanAll materializes every object's scalar row (full scans run on the
// fibers partition by partition).
func (s *SQLSession) scanAll() ([]types.Row, error) {
	var keys []string
	for _, p := range s.store.parts {
		p.do(func(p *partition) {
			for key, e := range p.objects {
				if e.obj != nil && e.obj.Type == s.typ {
					keys = append(keys, key)
				}
			}
		})
	}
	sort.Strings(keys)
	var out []types.Row
	for _, key := range keys {
		obj, err := s.store.Get(key, s.version)
		if err != nil {
			continue // deleted concurrently
		}
		out = append(out, s.objectRow(obj))
	}
	return out, nil
}

func (s *SQLSession) execInsert(ins *sqlx.Insert) (*SQLResult, error) {
	if err := s.checkTable(ins.Table); err != nil {
		return nil, err
	}
	if ins.Query != nil {
		return nil, fmt.Errorf("gmdb: INSERT..SELECT is not supported")
	}
	if len(ins.Columns) == 0 {
		return nil, fmt.Errorf("gmdb: INSERT requires an explicit column list")
	}
	n := 0
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(ins.Columns) {
			return nil, fmt.Errorf("gmdb: %d values for %d columns", len(exprRow), len(ins.Columns))
		}
		rec := schema.NewRecord(s.sc.Root)
		var key string
		for i, colName := range ins.Columns {
			fi := s.sc.Root.FieldIndex(strings.ToLower(colName))
			if fi < 0 {
				return nil, fmt.Errorf("gmdb: unknown column %q", colName)
			}
			lit, ok := exprRow[i].(*sqlx.Literal)
			if !ok {
				return nil, fmt.Errorf("gmdb: INSERT values must be literals")
			}
			rec.Values[fi] = schema.Value{Scalar: lit.Value}
			if strings.EqualFold(colName, s.sc.PrimaryKey) {
				key = lit.Value.String()
			}
		}
		if key == "" {
			return nil, fmt.Errorf("gmdb: INSERT must set the primary key %q", s.sc.PrimaryKey)
		}
		obj := &schema.Object{Type: s.typ, Version: s.version, Root: rec}
		if err := s.store.Put(key, obj); err != nil {
			return nil, err
		}
		n++
	}
	return &SQLResult{RowsAffected: n}, nil
}

func (s *SQLSession) execUpdate(up *sqlx.Update) (*SQLResult, error) {
	if err := s.checkTable(up.Table); err != nil {
		return nil, err
	}
	key, ok := s.keyFromWhere(up.Where)
	if !ok {
		return nil, fmt.Errorf("gmdb: UPDATE requires WHERE %s = '<key>' (single-object transactions)", s.sc.PrimaryKey)
	}
	err := s.store.Update(key, s.version, func(obj *schema.Object) error {
		for _, a := range up.Set {
			fi := s.sc.Root.FieldIndex(strings.ToLower(a.Column))
			if fi < 0 {
				return fmt.Errorf("gmdb: unknown column %q", a.Column)
			}
			lit, ok := a.Value.(*sqlx.Literal)
			if !ok {
				return fmt.Errorf("gmdb: UPDATE values must be literals")
			}
			for len(obj.Root.Values) <= fi {
				obj.Root.Values = append(obj.Root.Values, schema.Value{})
			}
			obj.Root.Values[fi] = schema.Value{Scalar: lit.Value}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &SQLResult{RowsAffected: 1}, nil
}

func (s *SQLSession) execDelete(del *sqlx.Delete) (*SQLResult, error) {
	if err := s.checkTable(del.Table); err != nil {
		return nil, err
	}
	key, ok := s.keyFromWhere(del.Where)
	if !ok {
		return nil, fmt.Errorf("gmdb: DELETE requires WHERE %s = '<key>'", s.sc.PrimaryKey)
	}
	if err := s.store.Delete(key); err != nil {
		return nil, err
	}
	return &SQLResult{RowsAffected: 1}, nil
}
