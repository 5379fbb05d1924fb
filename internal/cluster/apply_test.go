package cluster

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// shipper replays on a standby what the commit tap saw its primary commit —
// the part of internal/repl's row sink that is this package's: records in,
// ApplyStandbyRecs.
type shipper struct {
	t                *testing.T
	c                *Cluster
	tap              *recordingTap
	primary, standby int
	sent             int
}

func newShipper(t *testing.T, c *Cluster, primary int) *shipper {
	t.Helper()
	sid, err := c.AddStandby(primary, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shipper{t: t, c: c, tap: newRecordingTap(false), primary: primary, standby: sid}
	t.Cleanup(c.AddCommitTap(sh.tap))
	return sh
}

// ship applies every record committed on the primary since the last ship.
func (sh *shipper) ship() {
	sh.t.Helper()
	recs := sh.tap.stream(sh.primary)
	if err := sh.c.ApplyStandbyRecs(sh.standby, recs[sh.sent:]); err != nil {
		sh.t.Fatalf("applying %d shipped records: %v", len(recs)-sh.sent, err)
	}
	sh.sent = len(recs)
}

// mirrorMatches fails unless the standby's mirror of table holds exactly the
// primary's visible rows.
func (sh *shipper) mirrorMatches(table string) {
	sh.t.Helper()
	want, err := sh.c.PartitionDigest(table, sh.primary, sh.primary)
	if err != nil {
		sh.t.Fatal(err)
	}
	if got, _ := sh.c.PartitionDigest(table, sh.standby, sh.primary); got != want {
		sh.t.Fatalf("%s: mirror holds %+v, primary %+v", table, got, want)
	}
}

// valuesList renders rows 0..n-1 of f as one INSERT's VALUES list.
func valuesList(n int, f func(i int) string) string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = f(i)
	}
	return strings.Join(vals, ", ")
}

// TestShippedRecordsVisitTheirKey: a standby replays a shipped UPDATE or
// DELETE the way the primary ran it — on a keyed table it visits the old
// row's key, not the mirror's partition, at any mirror size; on an unkeyed
// table two identical rows updated together end exactly two instances; a
// primary-key-changing UPDATE ships. The mirror ends equal to the primary.
func TestShippedRecordsVisitTheirKey(t *testing.T) {
	keyed := "CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) DISTRIBUTE BY HASH(k)"
	kvRows := func(n int) string {
		return "INSERT INTO kv VALUES " + valuesList(n, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i) })
	}
	cases := []struct {
		name, table string
		setup       []string
		stmts       []string
		ceiling     int64 // versions the mirror may visit per statement; 0: unchecked
		versions    int   // the mirror's heap size at the end; 0: unchecked
	}{
		{"keyed, 100-row mirror", "kv", []string{keyed, kvRows(100)},
			[]string{"UPDATE kv SET v = -1 WHERE k = 7", "UPDATE kv SET v = -2 WHERE k = 7", "DELETE FROM kv WHERE k = 8"}, 2, 0},
		{"keyed, 1000-row mirror", "kv", []string{keyed, kvRows(1000)},
			[]string{"UPDATE kv SET v = -1 WHERE k = 7", "UPDATE kv SET v = -2 WHERE k = 7", "DELETE FROM kv WHERE k = 8"}, 2, 0},
		{"unkeyed twins", "u",
			[]string{"CREATE TABLE u (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)", "INSERT INTO u VALUES (1, 10), (1, 10), (2, 20)"},
			[]string{"UPDATE u SET v = 11 WHERE k = 1"}, 0, 5},
		{"primary key change", "d",
			[]string{"CREATE TABLE d (w BIGINT, d BIGINT, v BIGINT, PRIMARY KEY (w, d)) DISTRIBUTE BY HASH(w)",
				"INSERT INTO d VALUES (1, 1, 10), (1, 2, 20), (2, 1, 30)"},
			[]string{"UPDATE d SET d = 5 WHERE w = 1 AND d = 1", "UPDATE d SET d = 1, v = 11 WHERE w = 1 AND d = 5"}, 2, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 1, ModeGTMLite)
			s := c.NewSession()
			for _, stmt := range tc.setup {
				mustExec(t, s, stmt)
			}
			sh := newShipper(t, c, 0)
			ti, err := c.tableInfo(tc.table)
			if err != nil {
				t.Fatal(err)
			}
			mirror := ti.part(sh.standby).row
			for _, stmt := range tc.stmts {
				if res := mustExec(t, s, stmt); res.RowsAffected == 0 {
					t.Fatalf("%s changed nothing", stmt)
				}
				before := mirror.Visited()
				sh.ship()
				if n := mirror.Visited() - before; tc.ceiling > 0 && n > tc.ceiling {
					t.Errorf("replaying %q visited %d mirror versions, want at most %d", stmt, n, tc.ceiling)
				}
				sh.mirrorMatches(tc.table)
			}
			if n := mirror.VersionCount(); tc.versions > 0 && n != tc.versions {
				t.Errorf("mirror heap holds %d versions, want %d", n, tc.versions)
			}
		})
	}
}

// TestBucketDeltaCarriesUpdateDuringCopy: a keyed row updated after a bucket
// move's live copy reaches the target through the post-freeze delta — a
// delete record ending the stale copy by its key, then the new version — so
// the target's bucket equals the source's at the flip.
func TestBucketDeltaCarriesUpdateDuringCopy(t *testing.T) {
	c := newCluster(t, 1, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) DISTRIBUTE BY HASH(k)")
	mustExec(t, s, "INSERT INTO kv VALUES "+valuesList(200, func(i int) string { return fmt.Sprintf("(%d, %d)", i, i) }))
	target, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	const key = 7
	bucket := BucketOf(types.NewInt(key))
	flipped := false
	c.MoveHook = func(stage string, _, _ int) {
		switch stage {
		case "copied":
			mustExec(t, s, fmt.Sprintf("UPDATE kv SET v = -1 WHERE k = %d", key))
		case "flipped":
			flipped = true
			// The source is not reaped yet: its copy of the bucket is the
			// rows it holds that the map now assigns to the target.
			want, _ := c.PartitionDigest("kv", 0, target)
			if got, _ := c.PartitionDigest("kv", target, target); got != want || want.Rows == 0 {
				t.Errorf("target's bucket holds %+v, source's %+v", got, want)
			}
		}
	}
	if _, err := c.MoveBucket(bucket, target); err != nil {
		t.Fatal(err)
	}
	if !flipped {
		t.Fatal("the move never flipped")
	}
	res := mustExec(t, s, fmt.Sprintf("SELECT v FROM kv WHERE k = %d", key))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != -1 {
		t.Fatalf("k = %d reads %v after the move, want [-1]", key, res.Rows)
	}
	if got := mustChecksum(t, c, "kv"); got.Rows != 200 {
		t.Fatalf("kv holds %d rows after the move, want 200", got.Rows)
	}
}
