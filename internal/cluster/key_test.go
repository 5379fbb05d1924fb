package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/types"
)

// twins runs one statement against a table with a primary key and against
// its unkeyed twin, which must hold the same rows in the same heap order,
// and fails unless both answer alike: same rows in the same order, same
// RowsAffected, same error. The key index may only change where a partition
// looks, never what a statement sees.
type twins struct {
	t *testing.T
	s *Session
	// keyed and unkeyed match the two sides' table names, as whole words.
	keyed, unkeyed *regexp.Regexp
}

// twinOf maps a keyed table's name to its unkeyed twin's: wt -> wu.
func twinOf(name string) string { return name[:len(name)-1] + "u" }

func newTwins(t *testing.T, s *Session, keyed ...string) *twins {
	unkeyed := make([]string, len(keyed))
	for i, name := range keyed {
		unkeyed[i] = twinOf(name)
	}
	words := func(names []string) *regexp.Regexp {
		return regexp.MustCompile(`\b(` + strings.Join(names, "|") + `)\b`)
	}
	return &twins{t: t, s: s, keyed: words(keyed), unkeyed: words(unkeyed)}
}

// both runs sql (written against the keyed tables) on both sides and
// returns the keyed side's result and error.
func (tw *twins) both(when, sql string) (*Result, error) {
	tw.t.Helper()
	res, err := tw.s.Exec(sql)
	twin := tw.keyed.ReplaceAllStringFunc(sql, twinOf)
	tres, terr := tw.s.Exec(twin)
	if (err == nil) != (terr == nil) {
		tw.t.Fatalf("%s: %q: err = %v, on the unkeyed twin %v", when, sql, err, terr)
	}
	if err != nil {
		// The messages may name the table; nothing else may differ.
		if got, want := tw.keyed.ReplaceAllString(err.Error(), "T"), tw.unkeyed.ReplaceAllString(terr.Error(), "T"); got != want {
			tw.t.Fatalf("%s: %q fails with %q, on the unkeyed twin with %q", when, sql, err, terr)
		}
		return nil, err
	}
	if got, want := fmt.Sprint(res.Rows), fmt.Sprint(tres.Rows); got != want || res.RowsAffected != tres.RowsAffected {
		tw.t.Fatalf("%s: %q\nkeyed:   %d affected, rows %s\nunkeyed: %d affected, rows %s", when, sql, res.RowsAffected, got, tres.RowsAffected, want)
	}
	return res, nil
}

func (tw *twins) must(when, sql string) *Result {
	tw.t.Helper()
	res, err := tw.both(when, sql)
	if err != nil {
		tw.t.Fatalf("%s: %q failed: %v", when, sql, err)
	}
	return res
}

// TestDifferentialKeyedVsUnkeyed holds the key access path to the partition
// walk: the DML harness's random statements, and the probes that separate
// "narrows the candidates" from "decides the answer", run against keyed
// tables and their unkeyed twins — through a vacuum, live bucket moves
// (where a migration phantom carries the right key on the wrong node), a
// synced standby serving the reads and an HTAP replica, at degree 1 and 4.
func TestDifferentialKeyedVsUnkeyed(t *testing.T) {
	for _, degree := range []int{1, 4} {
		t.Run(fmt.Sprintf("degree %d", degree), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(97 + degree)))
			c := newCluster(t, 2, ModeGTMLite)
			c.ParallelDegree = degree
			s := c.NewSession()
			for _, ddl := range []string{
				"CREATE TABLE wt (id BIGINT, a BIGINT, b BIGINT, c TEXT, d TEXT, PRIMARY KEY (id)) DISTRIBUTE BY HASH(id)",
				"CREATE TABLE wu (id BIGINT, a BIGINT, b BIGINT, c TEXT, d TEXT) DISTRIBUTE BY HASH(id)",
				// A composite key, distributed by its first column.
				"CREATE TABLE ct (w BIGINT, d BIGINT, v BIGINT, PRIMARY KEY (w, d)) DISTRIBUTE BY HASH(w)",
				"CREATE TABLE cu (w BIGINT, d BIGINT, v BIGINT) DISTRIBUTE BY HASH(w)",
				// A key the table is not distributed by: a statement that pins
				// it is a scatter statement probing every partition by key.
				"CREATE TABLE pt (id BIGINT, g BIGINT, v BIGINT, PRIMARY KEY (id)) DISTRIBUTE BY HASH(g)",
				"CREATE TABLE pu (id BIGINT, g BIGINT, v BIGINT) DISTRIBUTE BY HASH(g)",
			} {
				mustExec(t, s, ddl)
			}
			tw := newTwins(t, s, "wt", "ct", "pt")
			for w := 0; w < 4; w++ {
				for d := 0; d < 6; d++ {
					tw.must("load", fmt.Sprintf("INSERT INTO ct VALUES (%d, %d, %d)", w, d, 10*w+d))
				}
			}
			for id := 0; id < 40; id++ {
				tw.must("load", fmt.Sprintf("INSERT INTO pt VALUES (%d, %d, %d)", id, id%7, id))
			}

			// The model keeps the generators honest; keyed=false stops them
			// from generating colliding INSERTs, which only one twin refuses.
			m := &dmlModel{rowStore: true}
			sequence := func(when string, n int) {
				t.Helper()
				for ; n > 0; n-- {
					st := m.gen(rng)
					res := tw.must(when, st.sql)
					if want := st.apply(); res.RowsAffected != want {
						t.Fatalf("%s: %q affected %d rows, model says %d", when, st.sql, res.RowsAffected, want)
					}
				}
			}
			probes := func(when string) {
				t.Helper()
				present, absent := int64(-1), m.nextID+1000
				if len(m.rows) > 0 {
					present = m.rows[rng.Intn(len(m.rows))].id
				}
				for _, where := range []string{
					fmt.Sprintf("id = %d", present),
					fmt.Sprintf("%d = id", present),
					fmt.Sprintf("id = %d", absent),
					fmt.Sprintf("id = %d.0", present), // BIGINT key, DOUBLE constant: equal, and found
					fmt.Sprintf("id = %d.5", present),
					fmt.Sprintf("id = '%d'", present), // not comparable: the same error, not an empty result
					"id = NULL",
					fmt.Sprintf("id = -%d", present),
					fmt.Sprintf("id = %d OR id = %d", present, present+1), // not a conjunct: no key
					fmt.Sprintf("id = %d AND id = %d", present, present+1),
					fmt.Sprintf("id = %d AND id = %d.0", present, present),
					fmt.Sprintf("a >= 0 AND id = %d AND (b < 20 OR c IS NULL)", present),
					fmt.Sprintf("NOT (id = %d)", present),
				} {
					tw.both(when, "SELECT id, a, b, c, d FROM wt WHERE "+where)
					tw.both(when, "SELECT count(*), sum(a) FROM wt WHERE "+where)
				}
				if _, err := tw.both(when, fmt.Sprintf("UPDATE wt SET a = 1 WHERE id = '%d'", present)); err == nil && len(m.rows) > 0 {
					t.Fatalf("%s: UPDATE comparing the BIGINT key with a string succeeded", when)
				}
				for _, q := range []string{
					"SELECT w, d, v FROM ct WHERE w = 1 AND d = 2",
					"SELECT w, d, v FROM ct WHERE d = 2 AND w = 1.0",
					"SELECT w, d, v FROM ct WHERE w = 1", // one key column unpinned
					"SELECT w, d, v FROM ct WHERE d = 2",
					"SELECT w, d, v FROM ct WHERE w = 1 AND d = 2 AND v > 1000",
					"UPDATE ct SET v = v + 1 WHERE w = 2 AND d = 3",
					"UPDATE ct SET v = v + 1 WHERE w = 2",
					"SELECT id, g, v FROM pt WHERE id = 11", // scatter, by key on every partition
					"SELECT id, g, v FROM pt WHERE id = 11 AND g = 4",
					"UPDATE pt SET v = v + 1 WHERE id = 12",
					"SELECT sum(v), count(*) FROM pt",
				} {
					tw.must(when, q)
				}
			}

			sequence("load", 40)
			probes("after the load")

			// A key deleted and re-inserted in one transaction; the
			// transaction reads its own versions of the key.
			key := m.rows[0].id
			mustExec(t, s, "BEGIN")
			tw.must("rewrite in a transaction", fmt.Sprintf("DELETE FROM wt WHERE id = %d", key))
			if res := tw.must("rewrite in a transaction", fmt.Sprintf("SELECT id FROM wt WHERE id = %d", key)); len(res.Rows) != 0 {
				t.Fatalf("deleted key %d still read inside its transaction: %v", key, res.Rows)
			}
			tw.must("rewrite in a transaction", fmt.Sprintf("INSERT INTO wt (id, a) VALUES (%d, 77)", key))
			tw.must("rewrite in a transaction", fmt.Sprintf("UPDATE wt SET a = a + 1 WHERE id = %d", key))
			if res := tw.must("rewrite in a transaction", fmt.Sprintf("SELECT a FROM wt WHERE id = %d", key)); len(res.Rows) != 1 || res.Rows[0][0].Int() != 78 {
				t.Fatalf("re-inserted key %d reads %v inside its transaction, want one row with a = 78", key, res.Rows)
			}
			mustExec(t, s, "COMMIT")
			seventyEight := int64(78)
			m.rows[0].refRow = refRow{a: &seventyEight}

			// An UPDATE that changes a key column: the successor is found
			// under its new key, no longer under the old one, and the key it
			// may not take is still refused.
			tw.must("key update", "UPDATE ct SET d = d + 100 WHERE w = 1 AND d = 2")
			if res := tw.must("key update", "SELECT v FROM ct WHERE w = 1 AND d = 102"); len(res.Rows) != 1 {
				t.Fatalf("row moved to key (1,102) not found there: %v", res.Rows)
			}
			if res := tw.must("key update", "SELECT v FROM ct WHERE w = 1 AND d = 2"); len(res.Rows) != 0 {
				t.Fatalf("row moved away from key (1,2) still found there: %v", res.Rows)
			}
			if _, err := s.Exec("UPDATE ct SET d = 3 WHERE w = 1 AND d = 102"); !errors.Is(err, storage.ErrDuplicateKey) {
				t.Fatalf("UPDATE onto the taken key (1,3): err = %v, want ErrDuplicateKey", err)
			}
			if _, err := s.Exec("INSERT INTO ct VALUES (1, 102, 0)"); !errors.Is(err, storage.ErrDuplicateKey) {
				t.Fatalf("INSERT of the taken key (1,102): err = %v, want ErrDuplicateKey", err)
			}

			// Vacuum moves heap slots: the index is rebuilt over them.
			if c.Vacuum() == 0 {
				t.Fatal("nothing to vacuum after 40 random DML statements")
			}
			probes("after vacuum")
			sequence("after vacuum", 15)

			// Log-fed copies: every primary gets a standby, and reads go there
			// once it is synced; scatter aggregates go to the HTAP replicas.
			if LogFedReplicas == nil {
				t.Fatal("replicas_test.go did not install LogFedReplicas")
			}
			caughtUp := LogFedReplicas(t, c)
			sequence("with replicas", 15)
			caughtUp("wt")
			c.routeMu.RLock()
			standbyOf := map[int]int{}
			for sid, p := range c.standbys {
				standbyOf[p] = sid
			}
			c.routeMu.RUnlock()
			c.SetStandbyReads(func(p int) (int, bool) { sid, ok := standbyOf[p]; return sid, ok })
			ti, _ := c.tableInfo("wt")
			before := int64(0)
			for _, sid := range standbyOf {
				before += ti.part(sid).row.Visited()
			}
			probes("served by standbys and HTAP replicas")
			after := int64(0)
			for _, sid := range standbyOf {
				after += ti.part(sid).row.Visited()
			}
			if after == before {
				t.Fatal("no probe was served by a standby's partition")
			}
			c.SetStandbyReads(nil)

			// Live bucket moves: while a bucket's rows are copied to the new
			// node but not cut over, the target holds phantoms that carry
			// real keys. pt is probed by key on every partition, so only the
			// ownership filter stands between a phantom and the result.
			id, err := c.AddDataNode()
			if err != nil {
				t.Fatal(err)
			}
			c.MoveHook = func(stage string, bucket, target int) {
				if stage != "copied" {
					return
				}
				when := fmt.Sprintf("bucket %d -> dn%d copied", bucket, target)
				for g := int64(0); g < 7; g++ {
					if BucketOf(types.NewInt(g)) != bucket {
						continue
					}
					for pid := g; pid < 40; pid += 7 {
						if res := tw.must(when, fmt.Sprintf("SELECT id, g, v FROM pt WHERE id = %d", pid)); len(res.Rows) != 1 {
							t.Fatalf("%s: key %d read %d times: %v", when, pid, len(res.Rows), res.Rows)
						}
						tw.must(when, fmt.Sprintf("UPDATE pt SET v = v + 1 WHERE id = %d", pid))
					}
				}
				probes(when)
				sequence(when, 3)
			}
			moved := 0
			for _, b := range c.ExpansionPlan(id) {
				if _, err := c.MoveBucket(b, id); err != nil {
					t.Fatalf("MoveBucket(%d, %d): %v", b, id, err)
				}
				if moved++; moved == 40 {
					break
				}
			}
			c.MoveHook = nil
			probes("after the bucket moves")
			sequence("after the bucket moves", 10)
			if got := canon(mustExec(t, c.NewSession(), "SELECT id, a, b, c, d FROM wt").Rows); got != m.canon() {
				t.Fatalf("table differs from the model\nengine:\n%s\nmodel:\n%s", got, m.canon())
			}
		})
	}
}

// TestPointStatementsVisitOneKey counts tuples, not microseconds: a statement
// that pins a table's whole primary key examines that key's versions on its
// partition, whatever the partition holds.
func TestPointStatementsVisitOneKey(t *testing.T) {
	const rows = 5000
	c := newCluster(t, 1, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT) DISTRIBUTE BY HASH(k)")
	mustExec(t, s, "CREATE TABLE dist (w BIGINT, d BIGINT, y BIGINT, PRIMARY KEY (w, d)) DISTRIBUTE BY HASH(w)")
	for lo := 0; lo < rows; lo += 500 {
		var kv, dist []string
		for i := lo; i < lo+500; i++ {
			kv = append(kv, fmt.Sprintf("(%d, 'v%d')", i, i))
			dist = append(dist, fmt.Sprintf("(%d, %d, 0)", i/10, i%10))
		}
		mustExec(t, s, "INSERT INTO kv VALUES "+strings.Join(kv, ","))
		mustExec(t, s, "INSERT INTO dist VALUES "+strings.Join(dist, ","))
	}
	visited := func(table string) int64 {
		ti, err := c.tableInfo(table)
		if err != nil {
			t.Fatal(err)
		}
		return ti.part(0).row.Visited()
	}
	// Each step's budget is the number of versions its key has by then.
	for _, step := range []struct {
		table, sql string
		rows, most int64
	}{
		{"kv", "SELECT v FROM kv WHERE k = 4321", 1, 1},
		{"kv", "UPDATE kv SET v = 'x' WHERE k = 4321", 1, 1},
		{"kv", "SELECT v FROM kv WHERE k = 4321", 1, 2},
		{"kv", "UPDATE kv SET v = 'y' WHERE k = 4321.0", 1, 2},
		{"kv", "DELETE FROM kv WHERE k = 4321", 1, 3},
		{"kv", "INSERT INTO kv VALUES (4321, 'z')", 1, 3}, // the key check
		{"kv", "INSERT INTO kv VALUES (5000001, 'new')", 1, 0},
		{"dist", "SELECT y FROM dist WHERE w = 77 AND d = 3", 1, 1},
		{"dist", "UPDATE dist SET y = y + 1 WHERE d = 3 AND w = 77", 1, 1},
		{"dist", "SELECT y FROM dist WHERE w = 77 AND d = 3 AND y > 100", 0, 2},
	} {
		before := visited(step.table)
		res := mustExec(t, s, step.sql)
		if got := int64(len(res.Rows) + res.RowsAffected); got != step.rows {
			t.Fatalf("%q returned / affected %d rows, want %d", step.sql, got, step.rows)
		}
		if n := visited(step.table) - before; n > step.most {
			t.Errorf("%q examined %d tuples of a %d-row partition, want at most %d", step.sql, n, rows, step.most)
		}
	}
	// A statement that leaves a key column unpinned walks the partition.
	before := visited("dist")
	mustExec(t, s, "SELECT y FROM dist WHERE w = 77")
	if n := visited("dist") - before; n < rows {
		t.Errorf("a statement pinning half the key examined %d tuples, want the whole partition (%d)", n, rows)
	}
}
