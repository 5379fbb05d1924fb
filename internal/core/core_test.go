package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/planstore"
	"repro/internal/types"
)

func open(t *testing.T, opts Options) *DB {
	t.Helper()
	db, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	return db
}

func TestOpenDefaultsAndQuickstart(t *testing.T) {
	db := open(t, Options{})
	db.MustExec("CREATE TABLE t (a BIGINT, b TEXT) DISTRIBUTE BY HASH(a)")
	db.MustExec("INSERT INTO t VALUES (1, 'hello'), (2, 'world')")
	res, err := db.Query("SELECT b FROM t ORDER BY a")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "hello" {
		t.Errorf("rows = %v", res.Rows)
	}
	if db.Cluster().DataNodeCount() != 4 {
		t.Errorf("default shards = %d", db.Cluster().DataNodeCount())
	}
}

func TestSessionsAreIndependent(t *testing.T) {
	db := open(t, Options{DataNodes: 2})
	db.MustExec("CREATE TABLE kv (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")
	db.MustExec("INSERT INTO kv VALUES (1, 10)")
	s1, s2 := db.Session(), db.Session()
	if _, err := s1.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec("UPDATE kv SET v = 99 WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	res, err := s2.Exec("SELECT v FROM kv WHERE k = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != 10 {
		t.Error("uncommitted write leaked across sessions")
	}
	s1.Exec("COMMIT")
}

func TestLearningLoopImprovesEstimates(t *testing.T) {
	// E6: run a canned query with skewed data; the first plan misestimates,
	// the captured actuals fix later plans.
	db := open(t, Options{DataNodes: 2, Learning: true})
	db.MustExec("CREATE TABLE skew (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a)")
	s := db.Session()
	for i := 0; i < 300; i++ {
		v := 0 // heavy skew: 90% of b values are 0
		if i%10 == 0 {
			v = i
		}
		s.Exec(fmt.Sprintf("INSERT INTO skew VALUES (%d, %d)", i, v))
	}
	if err := db.Analyze("skew"); err != nil {
		t.Fatal(err)
	}

	const q = "SELECT * FROM skew WHERE b = 0"
	res1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	var firstEst, secondEst float64
	for _, c := range res1.Plan.Counted {
		if strings.HasPrefix(c.StepText, "SCAN(SKEW") {
			firstEst = c.EstimatedRows
		}
	}
	res2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res2.Plan.Counted {
		if strings.HasPrefix(c.StepText, "SCAN(SKEW") {
			secondEst = c.EstimatedRows
		}
	}
	actual := float64(len(res1.Rows))
	if planstore.QError(firstEst, actual) <= planstore.QError(secondEst, actual) {
		t.Errorf("learning did not improve: first est %.0f, second est %.0f, actual %.0f",
			firstEst, secondEst, actual)
	}
	if secondEst != actual {
		t.Errorf("second estimate should be the learned actual: %.0f vs %.0f", secondEst, actual)
	}
	if db.PlanStore().Len() == 0 {
		t.Error("plan store is empty")
	}
	// A DN-side join's inputs are steps too: its side scans run only on the
	// data nodes, which count the rows each predicate selects, and the next
	// plan estimates every step — the join's included — at what was learned.
	db.PlanStore().CaptureRatio = 1 // learn every step
	const jq = "SELECT x.a FROM skew x, skew y WHERE x.a = y.a AND x.b = 0 AND y.b > 0"
	j1, err := db.Query(jq)
	if err != nil {
		t.Fatal(err)
	}
	dnJoin := false
	sides := map[string]int64{}
	for _, c := range j1.Plan.Counted {
		if hj, ok := c.Child.(*exec.HashJoin); ok && hj.Dist != nil {
			dnJoin = true
		}
		if strings.HasPrefix(c.StepText, "SCAN(SKEW") {
			sides[c.StepText] = c.ActualRows
		}
	}
	want := map[string]int64{"SCAN(SKEW, PREDICATE(SKEW.B = 0))": 271, "SCAN(SKEW, PREDICATE(SKEW.B > 0))": 29}
	if !dnJoin || fmt.Sprint(sides) != fmt.Sprint(want) {
		t.Errorf("DN-side join %t with side steps %v, want %v", dnJoin, sides, want)
	}
	j2, err := db.Query(jq)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range j2.Plan.Counted {
		if c.EstimatedRows != float64(c.ActualRows) {
			t.Errorf("warm %s: estimated %.0f, actual %d", c.StepText, c.EstimatedRows, c.ActualRows)
		}
	}
	// Turning learning off stops the consumer.
	db.Cluster().Learning = false
	res3, _ := db.Query(q)
	for _, c := range res3.Plan.Counted {
		if strings.HasPrefix(c.StepText, "SCAN(SKEW") && c.EstimatedRows == actual {
			t.Error("consumer still active with Learning off")
		}
	}
}

func TestMultiModelAccessors(t *testing.T) {
	now := time.Unix(1_700_000_000, 0).UTC()
	db := open(t, Options{DataNodes: 2, Clock: func() time.Time { return now }})
	// Graph: declared, then written through the default session.
	g, err := db.CreateGraph("g", []types.Column{{Name: "cid", Kind: types.KindInt}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddVertex("person", map[string]types.Datum{"cid": types.NewInt(7)}); err != nil {
		t.Fatal(err)
	}
	res := db.MustExec("SELECT cid FROM ggraph('g.V().values(cid)') AS g")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 7 {
		t.Errorf("graph rows = %v", res.Rows)
	}
	// Time series: samples in a table, read in time order.
	db.MustExec("CREATE TABLE m (ts TIMESTAMP, value DOUBLE) DISTRIBUTE BY HASH(ts)")
	db.MustExec("INSERT INTO m VALUES (now(), 43.0)")
	db.MustExec("INSERT INTO m VALUES ('" + now.Add(-time.Minute).Format(time.RFC3339) + "', 42.0)")
	res = db.MustExec("SELECT value FROM gtimeseries(SELECT ts, value FROM m WHERE now() - ts < INTERVAL '1 hour') AS g")
	if len(res.Rows) != 2 || res.Rows[0][0].Float() != 42 || res.Rows[1][0].Float() != 43 {
		t.Errorf("ts rows = %v", res.Rows)
	}
	// Spatial: points in a table.
	db.MustExec("CREATE TABLE pts (id BIGINT PRIMARY KEY, x DOUBLE, y DOUBLE) DISTRIBUTE BY HASH(id)")
	db.MustExec("INSERT INTO pts VALUES (1, 5.0, 5.0), (2, 50.0, 50.0)")
	res = db.MustExec("SELECT id FROM gspatial('pts.nearest(0, 0, 1)') AS g")
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 1 {
		t.Errorf("spatial rows = %v", res.Rows)
	}
}

func TestGTMRequestsMetric(t *testing.T) {
	db := open(t, Options{DataNodes: 4})
	db.MustExec("CREATE TABLE t (a BIGINT) DISTRIBUTE BY HASH(a)")
	before := db.GTMRequests()
	db.MustExec("INSERT INTO t VALUES (1)") // single-shard under GTM-lite
	if db.GTMRequests() != before {
		t.Error("single-shard insert should not touch the GTM")
	}
	db.MustExec("SELECT count(*) FROM t") // scatter
	if db.GTMRequests() == before {
		t.Error("scatter read should touch the GTM")
	}
}

func TestVacuumThroughFacade(t *testing.T) {
	db := open(t, Options{DataNodes: 1})
	db.MustExec("CREATE TABLE t (a BIGINT, b BIGINT) DISTRIBUTE BY HASH(a)")
	db.MustExec("INSERT INTO t VALUES (1, 1)")
	for i := 0; i < 3; i++ {
		db.MustExec("UPDATE t SET b = b + 1 WHERE a = 1")
	}
	if n := db.Vacuum(); n == 0 {
		t.Error("vacuum reclaimed nothing")
	}
	res := db.MustExec("SELECT b FROM t WHERE a = 1")
	if res.Rows[0][0].Int() != 4 {
		t.Errorf("b = %v", res.Rows[0][0])
	}
}

func TestBadOptions(t *testing.T) {
	if _, err := Open(Options{DataNodes: -1}); err == nil {
		// Negative is normalized to the default, which is fine — assert it
		// opens rather than fails.
		t.Log("negative DataNodes normalized to default")
	}
}
