package sqlx

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// TestMatchColumnValue: one matcher reads `column op value` for routing, the
// estimator and GMDB — either way round, literal or parameter, comparisons
// only.
func TestMatchColumnValue(t *testing.T) {
	where := func(cond string) (Expr, []types.Datum) {
		t.Helper()
		sql := "SELECT 1 FROM t WHERE " + cond
		sh := Normalize(sql)
		stmt, err := ParseLifted(sql, sh.Pos)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		return stmt.(*Select).Where, sh.Params
	}
	for cond, want := range map[string]string{
		"k = 5":        "k = 5",
		"5 = k":        "k = 5",
		"-5 < t.k":     "t.k > -5",
		"k <= 2.5":     "k <= 2.5",
		"'x' >= k":     "k <= 'x'",
		"k <> 'it''s'": "k <> 'it''s'",
		"3 != k":       "k <> 3",
		"k = NULL":     "k = NULL", // a literal the shape keeps
		"k = j":        "",
		"k + 1 = 5":    "",
		"k LIKE 'x'":   "",
		"k - 5":        "",
		"k IN (5)":     "",
		"NOT (k = 5)":  "",
		"k = 5 AND j":  "", // callers split conjuncts first
	} {
		e, params := where(cond)
		got := ""
		if col, op, val, ok := MatchColumnValue(e); ok {
			v, known := ValueOf(val, params)
			if !known {
				t.Errorf("%q: value of %s unknown under %v", cond, val, params)
			}
			_, isParam := val.(*Param)
			if _, known := ValueOf(val, nil); known == isParam {
				t.Errorf("%q: value of %s known without values: %v", cond, val, known)
			}
			got = fmt.Sprintf("%s %s %s", col, op, &Literal{Value: v})
		}
		if got != want {
			t.Errorf("%q matched as %q, want %q", cond, got, want)
		}
	}
}
