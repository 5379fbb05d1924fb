package sqlx

import "testing"

// FuzzParse: the parser takes client text straight off the wire, so any
// input must come back as a statement or an error, never a panic.
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
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err == nil && stmt == nil {
			t.Fatalf("Parse(%q) returned neither a statement nor an error", sql)
		}
	})
}
