package server

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlx"
	"repro/internal/types"
)

// FuzzNormalizeSQL is the differential check behind the statement cache. A
// text's key, with the literals Normalize lifted out of it put back where
// their placeholders stand, must lex as the text does — both fail, or both
// yield the same token kinds with the same text up to letter case — so two
// texts share a key only if they differ in lifted literals alone. And the
// statement parsed once for the shape must be the text's own: parsing with
// parameter nodes at the lifted positions yields the AST sqlx.Parse(text)
// yields but for a parameter, standing for the lifted value, where each
// lifted literal is — or fails as it fails. The session computes shapes into
// scratch it reuses, so appending a text's shape into buffers another
// text's key, values and offsets were left in must yield the fresh shape.
func FuzzNormalizeSQL(f *testing.F) {
	for _, seed := range []string{
		"SELECT 1 -- c\n, 2",
		"SELECT 1 -- c , 2",
		" \n-- c\n SELECT 1 ",
		"select\t*\n  from   t",
		"SELECT 'It''s UPPER  case'",
		`SELECT "Col  A", "--x" FROM T /* open`,
		"SELECT a/**/b, 1e--5, 1E+5, x- -y, 'unterminated",
		"SELECT v FROM kv WHERE k = -5 AND w = - -2.50 AND s = -'x' ORDER BY 2, v+1 LIMIT 10 OFFSET 3",
		"UPDATE t SET a = a + 1, s = 'x''y' WHERE k IN (1, 2.0, '3') AND d > now() - INTERVAL '1 hour'",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (99999999999999999999, NULL)",
		"SELECT g, count(*) FROM t WHERE k = 7 GROUP BY g, 2 HAVING count(*) > 1 UNION ALL SELECT 1, 2 ORDER BY 1",
		"EXPLAIN SELECT * FROM ggraph('g.V(1)') h, gspatial('pts.box(1, -2)') s, gtimeseries(SELECT 1) g WHERE h.id = 4",
		"CREATE TABLE t (k BIGINT, v VARCHAR(10), PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)",
		"SELECT (SELECT max(a) FROM u WHERE b = 1 ORDER BY 1 LIMIT 1) + 5, $1, '$S', \"$I\" FROM t",
		"SELECT v FROM t WHERE -5 < k AND 3 >= k AND k BETWEEN -2 AND +7 AND w IN (-1, 2.5e3, 'a''b')",
		"DELETE FROM t WHERE 'x' = s AND NOT (k NOT BETWEEN 1 AND - 2) AND k NOT IN (-0, - -1) OR 4.0 <> k",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		sh := sqlx.Normalize(sql)
		if NormalizeSQL(sql) != sh.Key {
			t.Fatalf("NormalizeSQL(%q) is not the shape key %q", sql, sh.Key)
		}
		if len(sh.Pos) != len(sh.Params) {
			t.Fatalf("%q lifts %d values at %d positions", sql, len(sh.Params), len(sh.Pos))
		}
		// After what another text left in the scratch, and over it.
		for _, keep := range []bool{true, false} {
			key, params, pos := sqlx.AppendShape(nil, nil, nil, dirtySQL)
			n, m := len(key), len(params)
			if !keep {
				n, m = 0, 0
			}
			key, params, pos = sqlx.AppendShape(key[:n], params[:m], pos[:m], sql)
			if string(key[n:]) != sh.Key || !slices.Equal(params[m:], sh.Params) || !slices.Equal(pos[m:], sh.Pos) {
				t.Fatalf("%q appended into dirty scratch (kept %v) gives %q %v %v, fresh %q %v %v",
					sql, keep, key[n:], params[m:], pos[m:], sh.Key, sh.Params, sh.Pos)
			}
		}
		want, wantErr := sqlx.Tokenize(sql)
		if wantErr == nil {
			// Put the lifted literals back and lex the key.
			lits := map[int]sqlx.Token{}
			for _, tok := range want {
				lits[tok.Pos] = tok
			}
			restored, ok := restoreLiterals(sh, lits)
			if !ok {
				t.Fatalf("key %q of %q does not hold one placeholder of the right kind per lifted literal %v", sh.Key, sql, sh.Params)
			}
			got, gotErr := sqlx.Tokenize(restored)
			if gotErr != nil {
				t.Fatalf("%q lexes, its restored key %q fails with %v", sql, restored, gotErr)
			}
			if len(got) != len(want) {
				t.Fatalf("%q lexes to %d tokens, its restored key %q to %d", sql, len(want), restored, len(got))
			}
			for i := range want {
				if got[i].Kind != want[i].Kind || !strings.EqualFold(got[i].Text, want[i].Text) {
					t.Fatalf("token %d of %q is %v, of its restored key %q is %v", i, sql, want[i], restored, got[i])
				}
			}
		} else if len(sh.Params) == 0 {
			// Nothing lifted: the key must fail to lex as the text does.
			if _, gotErr := sqlx.Tokenize(sh.Key); gotErr == nil {
				t.Fatalf("%q fails to lex (%v), its key %q lexes", sql, wantErr, sh.Key)
			}
		}

		ast, err := sqlx.Parse(sql)
		lifted, liftErr := sqlx.ParseLifted(sql, sh.Pos)
		switch {
		case err != nil:
			if liftErr == nil || (liftErr.Error() != err.Error() && liftErr != sqlx.ErrUnliftable) {
				t.Fatalf("Parse(%q) fails with %v, ParseLifted with %v", sql, err, liftErr)
			}
		case liftErr == sqlx.ErrUnliftable:
			// Runs uncached; nothing shares its parse.
		case liftErr != nil:
			t.Fatalf("Parse(%q) succeeds, ParseLifted fails with %v", sql, liftErr)
		default:
			if !sameAST(reflect.ValueOf(lifted), reflect.ValueOf(ast), sh.Params) {
				t.Fatalf("%q parses to %s, its shape %q with %v to %s", sql, ast, sh.Key, sh.Params, lifted)
			}
			// The planner reads a bare integer in GROUP BY / ORDER BY as an
			// output position; a parameter there would read as an expression.
			if paramOrdinal(reflect.ValueOf(lifted)) {
				t.Fatalf("%q: an ORDER BY / GROUP BY ordinal was lifted: %s", sql, lifted)
			}
		}
	})
}

// dirtySQL leaves key bytes, more values than most texts lift and their
// offsets in a shape's scratch.
const dirtySQL = "SELECT 'left', 9, 9.5, 'over' FROM T WHERE k = -1 AND s = 'x''y'"

// sameAST walks two ASTs in step and reports whether lifted is ast with a
// parameter in place of some literals, each standing under params for the
// literal's value.
func sameAST(lifted, ast reflect.Value, params []types.Datum) bool {
	if lifted.Type() != ast.Type() {
		return false
	}
	switch lifted.Kind() {
	case reflect.Pointer, reflect.Interface:
		if lifted.IsNil() || ast.IsNil() {
			return lifted.IsNil() == ast.IsNil()
		}
		if p, ok := lifted.Interface().(*sqlx.Param); ok {
			lit, isLit := ast.Interface().(*sqlx.Literal)
			return isLit && p.Index < len(params) && reflect.DeepEqual(lit.Value, p.Value(params))
		}
		return sameAST(lifted.Elem(), ast.Elem(), params)
	case reflect.Slice:
		if lifted.Len() != ast.Len() || lifted.IsNil() != ast.IsNil() {
			return false
		}
		for i := 0; i < lifted.Len(); i++ {
			if !sameAST(lifted.Index(i), ast.Index(i), params) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if _, leaf := lifted.Interface().(types.Datum); !leaf {
			for i := 0; i < lifted.NumField(); i++ {
				if !sameAST(lifted.Field(i), ast.Field(i), params) {
					return false
				}
			}
			return true
		}
	}
	return reflect.DeepEqual(lifted.Interface(), ast.Interface())
}

// paramOrdinal walks an AST and reports whether some SELECT has a parameter
// standing alone as a GROUP BY or ORDER BY item.
func paramOrdinal(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return !v.IsNil() && paramOrdinal(v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			if paramOrdinal(v.Index(i)) {
				return true
			}
		}
	case reflect.Struct:
		if sel, ok := v.Interface().(sqlx.Select); ok {
			for _, g := range sel.GroupBy {
				if _, bare := g.(*sqlx.Param); bare {
					return true
				}
			}
			for _, o := range sel.OrderBy {
				if _, bare := o.Expr.(*sqlx.Param); bare {
					return true
				}
			}
		}
		for i := 0; i < v.NumField(); i++ {
			if paramOrdinal(v.Field(i)) {
				return true
			}
		}
	}
	return false
}

// restoreLiterals writes sh's key with every placeholder replaced by the
// source form of the literal it stands for (lits maps token offsets in the
// original text to tokens). ok=false if placeholders and lifted literals do
// not pair up one to one with matching kinds.
func restoreLiterals(sh sqlx.Shape, lits map[int]sqlx.Token) (string, bool) {
	var b strings.Builder
	key, next := sh.Key, 0
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == '\'' || c == '"' {
			// A quoted run is copied as it stands.
			end := i + 1
			for end < len(key) {
				if key[end] != c {
					end++
				} else if c == '\'' && end+1 < len(key) && key[end+1] == '\'' {
					end += 2
				} else {
					break
				}
			}
			end = min(end+1, len(key))
			b.WriteString(key[i:end])
			i = end - 1
			continue
		}
		if c != '$' || i+1 == len(key) || !strings.ContainsRune("IFS", rune(key[i+1])) {
			b.WriteByte(c)
			continue
		}
		if next == len(sh.Params) {
			return "", false
		}
		tok, d := lits[sh.Pos[next]], sh.Params[next]
		next++
		switch {
		case key[i+1] == 'S' && d.Kind() == types.KindString && tok.Kind == sqlx.TokString && tok.Text == d.Str():
			b.WriteString("'" + strings.ReplaceAll(tok.Text, "'", "''") + "'")
		case key[i+1] == 'I' && d.Kind() == types.KindInt && tok.Kind == sqlx.TokNumber,
			key[i+1] == 'F' && d.Kind() == types.KindFloat && tok.Kind == sqlx.TokNumber:
			b.WriteString(tok.Text)
		default:
			return "", false
		}
		i++
	}
	return b.String(), next == len(sh.Params)
}

// FuzzDecodeFrames feeds arbitrary bytes to both frame decoders: neither
// may panic, hang or allocate beyond a small multiple of the frame, and
// whatever decodes must survive an encode → decode round trip unchanged.
func FuzzDecodeFrames(f *testing.F) {
	bomb := EncodeResponse(&Response{})
	bomb = types.AppendU32(types.AppendU32(bomb[:len(bomb)-4], 1), 0x7fffffff)
	f.Add(bomb)
	f.Add(wideClaimFrame())
	claim := EncodeResponse(&Response{})
	claim = types.AppendU32(types.AppendU32(claim[:len(claim)-4], 1<<20), 1<<20)
	f.Add(append(claim, make([]byte, 300)...))
	f.Add(EncodeRequest(&Request{Op: OpExec, Priority: 2, Session: 7, TimeoutMillis: 50, SQL: "SELECT 1"}))
	f.Add(EncodeRequest(&Request{Op: OpExec, Flags: FlagBegin, Session: 7, SQL: "UPDATE kv SET v = 1 WHERE k = 2"}))
	f.Add(EncodeResponse(&Response{
		Status: StatusOK, Session: 7, CacheHit: true, InTxn: true, RowsAffected: 3,
		Columns: []string{"a", "b"},
		Rows: []types.Row{
			{types.NewInt(1), types.NewString("x"), types.Null},
			{types.NewFloat(2.5), types.NewBytes([]byte{0, 1}), types.NewBool(true), types.NewTime(time.Unix(1, 2).UTC())},
		},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, qErr := DecodeRequest(b)
		p, pErr := DecodeResponse(b)
		runtime.ReadMemStats(&after)
		// A datum decodes to 32 bytes from as little as one; leave room for
		// row headers and unrelated runtime allocation.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(b)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), grew, limit)
		}
		if qErr == nil {
			enc := EncodeRequest(q)
			if again, err := DecodeRequest(enc); err != nil || *again != *q {
				t.Fatalf("request %+v re-decodes to %+v, %v", q, again, err)
			}
		}
		if pErr == nil {
			enc := EncodeResponse(p)
			again, err := DecodeResponse(enc)
			if err != nil || !bytes.Equal(EncodeResponse(again), enc) {
				t.Fatalf("response %+v does not round-trip: %v", p, err)
			}
		}
	})
}
