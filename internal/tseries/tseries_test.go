package tseries

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cluster"
	"repro/internal/sqlx"
	"repro/internal/types"
)

var t0 = time.Unix(1_600_000_000, 0).UTC()

// newCluster returns a 2-DN cluster whose statement clock, now(), reads
// now, and a session on it.
func newCluster(t testing.TB, now time.Time) (*cluster.Cluster, *cluster.Session) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	c.Clock = func() time.Time { return now }
	return c, c.NewSession()
}

// point is one sample; an empty tag is NULL.
type point struct {
	ts    time.Time
	value float64
	tag   string
}

// fill returns n samples, value i at t0 + i·step.
func fill(n int, step time.Duration) []point {
	pts := make([]point, n)
	for i := range pts {
		pts[i] = point{ts: t0.Add(time.Duration(i) * step), value: float64(i)}
	}
	return pts
}

func mustExec(t testing.TB, s *cluster.Session, sql string) *cluster.Result {
	t.Helper()
	res, err := s.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

// createSeries creates the series table name (ts TIMESTAMP, value DOUBLE,
// tag TEXT) and inserts pts.
func createSeries(t testing.TB, s *cluster.Session, name string, pts []point) {
	t.Helper()
	mustExec(t, s, "CREATE TABLE "+name+" (ts TIMESTAMP, value DOUBLE, tag TEXT) DISTRIBUTE BY HASH(ts)")
	insert(t, s, name, pts...)
}

// insert ingests pts into the series table name, one multi-row INSERT per
// 1000 samples.
func insert(t testing.TB, s *cluster.Session, name string, pts ...point) {
	t.Helper()
	for len(pts) > 0 {
		batch := pts[:min(len(pts), 1000)]
		pts = pts[len(batch):]
		ins := &sqlx.Insert{Table: name}
		for _, p := range batch {
			tag := types.Null
			if p.tag != "" {
				tag = types.NewString(p.tag)
			}
			ins.Rows = append(ins.Rows, []sqlx.Expr{
				&sqlx.Literal{Value: types.NewTime(p.ts)},
				&sqlx.Literal{Value: types.NewFloat(p.value)},
				&sqlx.Literal{Value: tag},
			})
		}
		if _, err := s.ExecStmt(ins); err != nil {
			t.Fatal(err)
		}
	}
}

func rfc(ts time.Time) string { return ts.Format(time.RFC3339Nano) }

// read returns the samples of the series table name that match where, in
// the order gtimeseries gives them.
func read(t testing.TB, s *cluster.Session, name, where string) []point {
	t.Helper()
	res := mustExec(t, s, "SELECT * FROM gtimeseries(SELECT ts, value, tag FROM "+name+" WHERE "+where+") AS g")
	out := make([]point, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = point{ts: r[0].Time(), value: r[1].Float()}
		if !r[2].IsNull() {
			out[i].tag = r[2].Str()
		}
	}
	return out
}

// count returns the number of samples in the series table name.
func count(t testing.TB, s *cluster.Session, name string) int64 {
	t.Helper()
	return mustExec(t, s, "SELECT count(*) FROM "+name).Rows[0][0].Int()
}

// bucket is one aggregated window: the samples whose age, now() - ts, is
// in [age·width, (age+1)·width).
type bucket struct {
	age, count          int64
	sum, min, max, mean float64
}

// window aggregates the series table name into buckets of width by age,
// oldest bucket first — the GROUP BY a dashboard runs in place of a rollup.
func window(s *cluster.Session, name string, width time.Duration) ([]bucket, error) {
	res, err := s.Exec(fmt.Sprintf(`SELECT (now() - ts) / %[2]d AS age, count(*), sum(value), min(value), max(value), avg(value)
		FROM %[1]s GROUP BY (now() - ts) / %[2]d ORDER BY age DESC`, name, width.Nanoseconds()))
	if err != nil {
		return nil, err
	}
	out := make([]bucket, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = bucket{r[0].Int(), r[1].Int(), r[2].Float(), r[3].Float(), r[4].Float(), r[5].Float()}
	}
	return out, nil
}

// oracle buckets pts as window's GROUP BY does at statement time now: by
// age (now - ts) / width, truncated toward zero, oldest bucket first.
func oracle(pts []point, now time.Time, width time.Duration) []bucket {
	byAge := map[int64]*bucket{}
	for _, p := range pts {
		age := (now.UnixNano() - p.ts.UnixNano()) / width.Nanoseconds()
		b, ok := byAge[age]
		if !ok {
			b = &bucket{age: age, min: p.value, max: p.value}
			byAge[age] = b
		}
		b.count++
		b.sum += p.value
		b.min, b.max = min(b.min, p.value), max(b.max, p.value)
	}
	out := make([]bucket, 0, len(byAge))
	for _, b := range byAge {
		b.mean = b.sum / float64(b.count)
		out = append(out, *b)
	}
	slices.SortFunc(out, func(a, b bucket) int { return cmp.Compare(b.age, a.age) })
	return out
}

// checkWindows compares window against oracle at each width.
func checkWindows(t testing.TB, s *cluster.Session, name string, pts []point, now time.Time, widths ...time.Duration) {
	t.Helper()
	for _, w := range widths {
		got, err := window(s, name, w)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracle(pts, now, w); !slices.Equal(got, want) {
			t.Errorf("%v buckets:\n got %+v\nwant %+v", w, got, want)
		}
	}
}

func TestAppendRange(t *testing.T) {
	_, s := newCluster(t, t0)
	createSeries(t, s, "temp", fill(100, time.Second))
	if n := count(t, s, "temp"); n != 100 {
		t.Fatalf("len = %d", n)
	}
	pts := read(t, s, "temp", fmt.Sprintf("ts >= '%s' AND ts < '%s'", rfc(t0.Add(10*time.Second)), rfc(t0.Add(20*time.Second))))
	if len(pts) != 10 {
		t.Fatalf("range = %d points", len(pts))
	}
	if pts[0].value != 10 || pts[9].value != 19 {
		t.Errorf("points = %v..%v", pts[0], pts[9])
	}
	if _, err := s.Exec("SELECT * FROM gtimeseries(SELECT ts FROM missing) AS g"); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing series: %v", err)
	}
}

func TestOutOfOrderAppends(t *testing.T) {
	_, s := newCluster(t, t0)
	createSeries(t, s, "x", nil)
	// Insert in reverse order; reads must still be time-ordered.
	for i := 9; i >= 0; i-- {
		insert(t, s, "x", point{ts: t0.Add(time.Duration(i) * time.Second), value: float64(i)})
	}
	pts := read(t, s, "x", fmt.Sprintf("ts < '%s'", rfc(t0.Add(time.Minute))))
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	for i, p := range pts {
		if p.value != float64(i) {
			t.Fatalf("point %d = %v", i, p)
		}
	}
}

// TestChunkSealing: a series thousands of samples long, ingested in
// batches, reads back whole and in time order.
func TestChunkSealing(t *testing.T) {
	const n = 2*4096 + 10
	_, s := newCluster(t, t0)
	createSeries(t, s, "big", fill(n, time.Millisecond))
	if got := count(t, s, "big"); got != n {
		t.Fatalf("len = %d", got)
	}
	pts := read(t, s, "big", fmt.Sprintf("ts >= '%s' AND ts < '%s'", rfc(t0), rfc(t0.Add(time.Hour))))
	if len(pts) != n {
		t.Fatalf("range = %d", len(pts))
	}
	for i, p := range pts {
		if p.value != float64(i) {
			t.Fatalf("point %d = %v", i, p)
		}
	}
}

func TestTagFiltering(t *testing.T) {
	_, s := newCluster(t, t0)
	createSeries(t, s, "speed", []point{
		{t0, 100, "a"},
		{t0.Add(time.Second), 120, "b"},
		{t0.Add(2 * time.Second), 130, "a"},
	})
	pts := read(t, s, "speed", "tag = 'a'")
	if len(pts) != 2 || pts[1].value != 130 {
		t.Errorf("filtered = %v", pts)
	}
}

func TestWindowAggregation(t *testing.T) {
	pts := fill(60, time.Second) // values 0..59 over one minute
	// The clock reads the newest sample, so the six 10-second buckets of
	// age are the minute's six 10-second spans, oldest first.
	now := pts[59].ts
	_, s := newCluster(t, now)
	createSeries(t, s, "w", pts)
	buckets, err := window(s, "w", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 6 {
		t.Fatalf("buckets = %d", len(buckets))
	}
	b := buckets[0]
	if b.count != 10 || b.sum != 45 || b.min != 0 || b.max != 9 || b.mean != 4.5 {
		t.Errorf("bucket 0 = %+v", b)
	}
	if buckets[5].max != 59 {
		t.Errorf("bucket 5 = %+v", buckets[5])
	}
}

// TestContinuousRollupMatchesOnTheFly: GROUP BY buckets at two widths
// equal the oracle's, and a sample inserted later is in the next query's
// buckets — a GROUP BY reads the table as of its statement.
func TestContinuousRollupMatchesOnTheFly(t *testing.T) {
	pts := fill(100, time.Second)
	now := t0.Add(100 * time.Second)
	_, s := newCluster(t, now)
	createSeries(t, s, "r", pts)
	checkWindows(t, s, "r", pts, now, 10*time.Second, 9*time.Second)

	late := point{ts: now, value: 1000}
	insert(t, s, "r", late)
	pts = append(pts, late)
	checkWindows(t, s, "r", pts, now, 10*time.Second, 9*time.Second)
	got, err := window(s, "r", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 || got[10].max != 1000 {
		t.Errorf("the newest bucket = %+v", got[len(got)-1])
	}
	if _, err := window(s, "r", 0); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("zero width: %v, want division by zero", err)
	}
}

// TestEpochAlignedWindow: a TIMESTAMP minus a string literal reads the
// string as a TIMESTAMP, as a comparison with one does, so a window can be
// counted from a fixed epoch instead of back from the statement clock; a
// string that is no TIMESTAMP fails the statement.
func TestEpochAlignedWindow(t *testing.T) {
	pts := fill(100, 7*time.Second)
	_, s := newCluster(t, t0.Add(time.Hour))
	createSeries(t, s, "e", pts)
	epoch := t0.Add(-13 * time.Second)
	const width = 30 * time.Second
	res := mustExec(t, s, fmt.Sprintf(`SELECT (ts - '%[1]s') / %[2]d AS w, count(*), sum(value)
		FROM e GROUP BY (ts - '%[1]s') / %[2]d ORDER BY w`, rfc(epoch), width.Nanoseconds()))
	type win struct {
		w, count int64
		sum      float64
	}
	var want []win
	for _, p := range pts {
		w := int64(p.ts.Sub(epoch) / width)
		if len(want) == 0 || want[len(want)-1].w != w {
			want = append(want, win{w: w})
		}
		want[len(want)-1].count++
		want[len(want)-1].sum += p.value
	}
	got := make([]win, len(res.Rows))
	for i, r := range res.Rows {
		got[i] = win{r[0].Int(), r[1].Int(), r[2].Float()}
	}
	if !slices.Equal(got, want) {
		t.Errorf("windows from %s:\n got %+v\nwant %+v", rfc(epoch), got, want)
	}
	if res := mustExec(t, s, fmt.Sprintf("SELECT count(*) FROM e WHERE '%s' - ts > 0", rfc(t0.Add(time.Minute)))); res.Rows[0][0].Int() != 9 {
		t.Errorf("samples older than a minute after t0: %v, want 9", res.Rows)
	}
	if _, err := s.Exec("SELECT ts - 'yesterday' FROM e"); err == nil || !strings.Contains(err.Error(), "yesterday") {
		t.Errorf("ts - 'yesterday': %v, want an error naming the value", err)
	}
}

func TestRollupEquivalenceProperty(t *testing.T) {
	// Property: for random data, GROUP BY buckets at two widths equal the
	// oracle's.
	now := t0.Add(time.Minute)
	_, s := newCluster(t, now)
	run := 0
	f := func(vals []uint8) bool {
		run++
		name := fmt.Sprintf("s%d", run)
		pts := make([]point, len(vals))
		for i, v := range vals {
			pts[i] = point{ts: t0.Add(time.Duration(i%40) * time.Second), value: float64(v)}
		}
		createSeries(t, s, name, pts)
		for _, w := range []time.Duration{5 * time.Second, 7 * time.Second} {
			got, err := window(s, name, w)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracle(pts, now, w); !slices.Equal(got, want) {
				t.Logf("%v buckets of %v:\n got %+v\nwant %+v", w, vals, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestExpire: retention is a DELETE of the samples older than a cutoff.
func TestExpire(t *testing.T) {
	_, s := newCluster(t, t0)
	createSeries(t, s, "e", fill(100, time.Second))
	res := mustExec(t, s, fmt.Sprintf("DELETE FROM e WHERE ts < '%s'", rfc(t0.Add(50*time.Second))))
	if res.RowsAffected != 50 {
		t.Fatalf("removed = %d", res.RowsAffected)
	}
	if n := count(t, s, "e"); n != 50 {
		t.Errorf("len = %d", n)
	}
	pts := read(t, s, "e", fmt.Sprintf("ts < '%s'", rfc(t0.Add(time.Hour))))
	if len(pts) != 50 || pts[0].value != 50 {
		t.Errorf("post-expiry = %d pts, first %v", len(pts), pts[0])
	}
	if res := mustExec(t, s, fmt.Sprintf("DELETE FROM e WHERE ts < '%s'", rfc(t0))); res.RowsAffected != 0 {
		t.Errorf("expiring nothing removed %d", res.RowsAffected)
	}
}

// TestLatest: the most recent sample is ORDER BY ts DESC LIMIT 1.
func TestLatest(t *testing.T) {
	_, s := newCluster(t, t0)
	createSeries(t, s, "l", nil)
	const latest = "SELECT value FROM l ORDER BY ts DESC LIMIT 1"
	if res := mustExec(t, s, latest); len(res.Rows) != 0 {
		t.Errorf("latest of an empty series = %v", res.Rows)
	}
	insert(t, s, "l", point{ts: t0.Add(5 * time.Second), value: 5}, point{ts: t0.Add(2 * time.Second), value: 2})
	if res := mustExec(t, s, latest); len(res.Rows) != 1 || res.Rows[0][0].Float() != 5 {
		t.Errorf("latest = %v", res.Rows)
	}
}

// TestNamesAndConcurrentIngest: four sessions ingest into one series at
// once, each under its own tag.
func TestNamesAndConcurrentIngest(t *testing.T) {
	c, s := newCluster(t, t0)
	createSeries(t, s, "concurrent", nil)
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := c.NewSession()
			for i := 0; i < 500; i++ {
				at := rfc(t0.Add(time.Duration(w*500+i) * time.Millisecond))
				if _, err := ws.Exec(fmt.Sprintf("INSERT INTO concurrent VALUES ('%s', %d.0, 'w%d')", at, i, w)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := count(t, s, "concurrent"); n != 2000 {
		t.Errorf("len = %d", n)
	}
	res := mustExec(t, s, "SELECT DISTINCT tag FROM concurrent ORDER BY tag")
	if fmt.Sprint(res.Rows) != "[(w0) (w1) (w2) (w3)]" {
		t.Errorf("tags = %v", res.Rows)
	}
}
