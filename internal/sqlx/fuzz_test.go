package sqlx

import "testing"

// FuzzParse: the parser takes client text straight off the wire, so any
// input must come back as a statement or an error, never a panic. It pulls
// its tokens from the lexer as it goes, so it must also reject every input
// the lexer rejects somewhere, wherever that is.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT 1 -- c\n, 2",
		"SELECT a, count(*) FROM t JOIN u ON t.k = u.k WHERE a BETWEEN 1 AND 2 GROUP BY a HAVING count(*) > 1 ORDER BY a DESC LIMIT 3",
		"WITH c AS (SELECT 1) SELECT * FROM c UNION ALL SELECT 2",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
		"UPDATE t SET a = CASE WHEN b IS NULL THEN 1 ELSE -a END WHERE k IN (1, 2)",
		"CREATE TABLE t (k BIGINT, v TEXT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k) USING COLUMN",
		"EXPLAIN ANALYZE SELECT * FROM gtimeseries(m, INTERVAL '1 hour') g, ggraph('g.V()') h",
		`SELECT "Col  A" FROM "T" /* open`,
		"SELECT ((((((((((1))))))))))",
		"INSERT INTO t VALUES (1, 2.5e3, 'a''b', NULL, TRUE), (-2, -0.5, '', NULL, FALSE), (3, 1 + 2, (SELECT 1), -x, 'z')",
		"INSERT INTO t (b, a) VALUES (99999999999999999999, 1), (9223372036854775807, -9223372036854775808)",
		"INSERT INTO t VALUES (1, 'unterminated), (2, 'x')",
		"INSERT INTO t VALUES (1, 2) # (3, 4)",
		"SELECT a FROM t WHERE a != 1 || b",
		"SELECT a FROM t WHERE a ! 1",
		"SELECT a | b FROM t",
		`SELECT "never closed FROM t`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", sql)
		}
		if _, lexErr := Tokenize(sql); lexErr != nil && err == nil {
			t.Fatalf("Parse(%q) accepted what the lexer rejects: %v", sql, lexErr)
		}
	})
}
