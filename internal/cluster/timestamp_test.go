package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// TestTimestampComparedWithString: a TIMESTAMP compared with a string value
// is a TIMESTAMP comparison, as assigning the string to the column is — in =,
// <, BETWEEN and IN, on a row table, one keyed and distributed by the
// timestamp and a columnar one, as literal text and by lifted shape alike (the
// same rows and the same storage work). A string that is no timestamp fails
// the statement and names the value.
func TestTimestampComparedWithString(t *testing.T) {
	c := newCluster(t, 3, ModeGTMLite)
	w := newShapeTwin(t, c)
	ts := func(i int) string { return fmt.Sprintf("'2026-10-15T01:02:0%dZ'", i) }
	for _, tc := range []struct{ table, create string }{
		{"ev_row", "CREATE TABLE ev_row (id BIGINT, ts TIMESTAMP) DISTRIBUTE BY HASH(id)"},
		{"ev_key", "CREATE TABLE ev_key (ts TIMESTAMP PRIMARY KEY, id BIGINT) DISTRIBUTE BY HASH(ts)"},
		{"ev_col", "CREATE TABLE ev_col (id BIGINT, ts TIMESTAMP) DISTRIBUTE BY HASH(id) USING COLUMN"},
	} {
		mustExec(t, w.s, tc.create)
		for i := 1; i <= 5; i++ {
			cols := fmt.Sprintf("(id, ts) VALUES (%d, %s)", i, ts(i))
			mustExec(t, w.s, "INSERT INTO "+tc.table+" "+cols)
		}
		for _, q := range []struct{ where, want string }{
			{"ts = " + ts(3), "[3]"},
			{ts(3) + " < ts", "[4 5]"},
			{"ts BETWEEN " + ts(1) + " AND " + ts(2), "[1 2]"},
			{"ts IN (" + ts(1) + ", " + ts(5) + ")", "[1 5]"},
		} {
			sql := "SELECT id FROM " + tc.table + " WHERE " + q.where + " ORDER BY id"
			res, err := w.exec(tc.table, sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			var ids []int64
			for _, r := range res.Rows {
				ids = append(ids, r[0].Int())
			}
			if got := fmt.Sprint(ids); got != q.want {
				t.Errorf("%s: ids %s, want %s", sql, got, q.want)
			}
		}
		// A comparison fails on a row it reads: the pinned ev_key reads one
		// shard, which may hold none. How far a failing scan gets before it
		// stops is not the same twice, so the work is not compared.
		if tc.table == "ev_key" {
			continue
		}
		bad := "SELECT id FROM " + tc.table + " WHERE ts = 'yesterday'"
		_, textErr := w.s.Exec(bad)
		_, shapeErr := w.byShape(bad)
		for _, err := range []error{textErr, shapeErr} {
			if err == nil || !strings.Contains(err.Error(), "yesterday") {
				t.Errorf("%s: err = %v, want one naming the value", bad, err)
			}
		}
	}
	// UPDATE and DELETE find their victims by the same comparison.
	mustExec(t, w.s, "UPDATE ev_key SET id = 30 WHERE ts = "+ts(3))
	mustExec(t, w.s, "DELETE FROM ev_row WHERE ts >= "+ts(4))
	for sql, want := range map[string]int64{
		"SELECT id FROM ev_key WHERE ts = " + ts(3): 30,
		"SELECT count(*) FROM ev_row":               3,
	} {
		if res := mustExec(t, w.s, sql); len(res.Rows) != 1 || res.Rows[0][0].Int() != want {
			t.Errorf("%s: %v, want %d", sql, res.Rows, want)
		}
	}
}
