package gmdb

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/gmdb/schema"
	"repro/internal/mme"
	"repro/internal/types"
)

func newSQL(t *testing.T, version int) (*Store, *SQLSession) {
	t.Helper()
	s, _ := newMMEStore(t)
	sess, err := s.NewSQLSession(mme.SessionType, version)
	if err != nil {
		t.Fatal(err)
	}
	return s, sess
}

func TestSQLInsertSelectByKey(t *testing.T) {
	_, sess := newSQL(t, 5)
	res, err := sess.Exec(`INSERT INTO mme_session (imsi, msisdn, apn, tac) VALUES ('460-1', '+8613800000000', 'ims', 4242)`)
	if err != nil || res.RowsAffected != 1 {
		t.Fatal(err, res)
	}
	res, err = sess.Exec(`SELECT imsi, apn, tac FROM mme_session WHERE imsi = '460-1'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	r := res.Rows[0]
	if r[0].Str() != "460-1" || r[1].Str() != "ims" || r[2].Int() != 4242 {
		t.Errorf("row = %v", r)
	}
	if res.Columns[2] != "tac" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSQLUpdateDelete(t *testing.T) {
	_, sess := newSQL(t, 5)
	sess.Exec(`INSERT INTO mme_session (imsi, state) VALUES ('k1', 'IDLE')`)
	res, err := sess.Exec(`UPDATE mme_session SET state = 'CONNECTED', tac = 7 WHERE imsi = 'k1'`)
	if err != nil || res.RowsAffected != 1 {
		t.Fatal(err, res)
	}
	res, _ = sess.Exec(`SELECT state, tac FROM mme_session WHERE imsi = 'k1'`)
	if res.Rows[0][0].Str() != "CONNECTED" || res.Rows[0][1].Int() != 7 {
		t.Errorf("row = %v", res.Rows[0])
	}
	if _, err := sess.Exec(`DELETE FROM mme_session WHERE imsi = 'k1'`); err != nil {
		t.Fatal(err)
	}
	res, _ = sess.Exec(`SELECT imsi FROM mme_session WHERE imsi = 'k1'`)
	if len(res.Rows) != 0 {
		t.Errorf("deleted row still visible: %v", res.Rows)
	}
	// UPDATE without a key predicate is rejected (single-object txns).
	if _, err := sess.Exec(`UPDATE mme_session SET tac = 1 WHERE tac > 0`); err == nil {
		t.Error("keyless update must fail")
	}
}

func TestSQLFullScanWithPredicate(t *testing.T) {
	_, sess := newSQL(t, 5)
	for _, kv := range [][2]string{{"a", "IDLE"}, {"b", "CONNECTED"}, {"c", "CONNECTED"}} {
		if _, err := sess.Exec(`INSERT INTO mme_session (imsi, state) VALUES ('` + kv[0] + `', '` + kv[1] + `')`); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sess.Exec(`SELECT imsi FROM mme_session WHERE state = 'CONNECTED'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Full-scan keys come back sorted.
	if res.Rows[0][0].Str() != "b" || res.Rows[1][0].Str() != "c" {
		t.Errorf("order = %v", res.Rows)
	}
}

func TestSQLCrossVersionReads(t *testing.T) {
	// A V3 SQL writer and a V6 SQL reader share one stored object; new V6
	// scalar columns appear with defaults.
	store, v3 := newSQL(t, 3)
	v6, err := store.NewSQLSession(mme.SessionType, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3.Exec(`INSERT INTO mme_session (imsi, apn) VALUES ('x', 'iot.nb')`); err != nil {
		t.Fatal(err)
	}
	res, err := v6.Exec(`SELECT apn, slice_id, nr_restriction FROM mme_session WHERE imsi = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Str() != "iot.nb" || r[1].Str() != "" || r[2].Bool() {
		t.Errorf("cross-version row = %v", r)
	}
	// V3 session cannot see V6-only columns.
	if _, err := v3.Exec(`SELECT slice_id FROM mme_session`); err == nil {
		t.Error("V3 session must not see V6 columns")
	}
}

func TestSQLErrors(t *testing.T) {
	store, sess := newSQL(t, 5)
	bad := []string{
		`SELECT * FROM wrong_table`,
		`SELECT nosuch FROM mme_session`,
		`INSERT INTO mme_session (msisdn) VALUES ('1')`, // no pk
		`INSERT INTO mme_session VALUES ('x')`,          // no column list
		`DELETE FROM mme_session`,                       // no key
		`SELECT imsi FROM mme_session ORDER BY imsi`,    // unsupported
		`SELECT count(*) FROM mme_session GROUP BY apn`, // grouping unsupported
		`SELECT DISTINCT apn FROM mme_session`,          // unsupported, like the three below
		`SELECT imsi FROM mme_session LIMIT 1`,
		`SELECT imsi FROM mme_session LIMIT 10 OFFSET 1`,
		`SELECT imsi FROM mme_session HAVING imsi = 'x'`,
	}
	for _, q := range bad {
		if _, err := sess.Exec(q); err == nil {
			t.Errorf("Exec(%q) should fail", q)
		}
	}
	if _, err := store.NewSQLSession(mme.SessionType, 99); err == nil {
		t.Error("unregistered version must fail")
	}
	if _, err := store.NewSQLSession("nosuch", 5); err == nil {
		t.Error("unknown type must fail")
	}
}

func TestSQLAndKVInterop(t *testing.T) {
	// The SQL surface and the KV/tree surface see the same objects.
	store, sess := newSQL(t, 5)
	sess.Exec(`INSERT INTO mme_session (imsi, state) VALUES ('interop', 'IDLE')`)
	obj, err := store.Get("interop", 5)
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := store.registry.Get(mme.SessionType, 5)
	si := sc.Root.FieldIndex("state")
	if obj.Root.Values[si].Scalar.Str() != "IDLE" {
		t.Error("KV read does not see SQL insert")
	}
	// KV update visible via SQL.
	store.Update("interop", 5, func(o *schema.Object) error {
		o.Root.Values[si] = schema.Value{Scalar: types.NewString("DETACHED")}
		return nil
	})
	res, _ := sess.Exec(`SELECT state FROM mme_session WHERE imsi = 'interop'`)
	if res.Rows[0][0].Str() != "DETACHED" {
		t.Errorf("SQL read after KV update = %v", res.Rows[0])
	}
	if !strings.Contains(strings.Join(res.Columns, ","), "state") {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSQLPredicateShapes(t *testing.T) {
	_, sess := newSQL(t, 5)
	for i := 0; i < 5; i++ {
		sess.Exec(fmt.Sprintf(`INSERT INTO mme_session (imsi, tac, dcnr) VALUES ('p%d', %d, %v)`, i, i*10, i%2 == 0))
	}
	cases := map[string]int{
		`SELECT imsi FROM mme_session WHERE tac BETWEEN 10 AND 30`:    3,
		`SELECT imsi FROM mme_session WHERE tac IN (0, 40)`:           2,
		`SELECT imsi FROM mme_session WHERE NOT (tac > 10)`:           2,
		`SELECT imsi FROM mme_session WHERE msisdn IS NOT NULL`:       5,
		`SELECT imsi FROM mme_session WHERE dcnr = true AND tac < 25`: 2,
		`SELECT imsi FROM mme_session WHERE -tac = -20`:               1,
	}
	for q, want := range cases {
		res, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(res.Rows) != want {
			t.Errorf("%q: %d rows, want %d", q, len(res.Rows), want)
		}
	}
	if _, err := sess.Exec(`SELECT imsi FROM mme_session WHERE tac = (SELECT 1)`); err == nil {
		t.Error("subquery must be rejected")
	}
}

// TestSQLPredicatesUseTheEngineCompiler: GMDB predicates compile with the
// planner's expression compiler, so the forms the private binder refused
// (functions, CASE), qualified columns and a key written value-first all
// work — and a subquery, which would need a catalog, says so.
func TestSQLPredicatesUseTheEngineCompiler(t *testing.T) {
	_, sess := newSQL(t, 5)
	for i := 0; i < 5; i++ {
		sess.Exec(fmt.Sprintf(`INSERT INTO mme_session (imsi, tac, apn) VALUES ('p%d', %d, 'apn-%d')`, i, i*10, i%2))
	}
	for q, want := range map[string]int{
		`SELECT imsi FROM mme_session WHERE apn LIKE 'apn-0%'`:                                      3,
		`SELECT imsi FROM mme_session WHERE CASE WHEN tac >= 20 THEN apn ELSE 'none' END = 'apn-0'`: 2,
		`SELECT imsi FROM mme_session WHERE tac * 2 + 1 > 41 AND abs(tac - 50) <= 20`:               2,
		`SELECT imsi FROM mme_session WHERE upper(mme_session.apn) = 'APN-1' AND 'p3' = imsi`:       1,
	} {
		res, err := sess.Exec(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if len(res.Rows) != want {
			t.Errorf("%q: %d rows, want %d", q, len(res.Rows), want)
		}
	}
	if res, err := sess.Exec(`DELETE FROM mme_session WHERE 'p4' = imsi`); err != nil || res.RowsAffected != 1 {
		t.Errorf("DELETE by a key written value-first: %v, %v", res, err)
	}
	for _, q := range []string{
		`SELECT imsi FROM mme_session WHERE imsi IN (SELECT imsi FROM mme_session)`,
		`SELECT imsi FROM mme_session WHERE tac > 0 AND NOT (apn = (SELECT 'x'))`,
	} {
		if _, err := sess.Exec(q); err == nil || !strings.Contains(err.Error(), "subqueries are not supported") {
			t.Errorf("%q: err = %v, want a refusal naming subqueries", q, err)
		}
	}
}
