package cluster

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/transport"
)

// learnAccounts loads a 4-DN `accounts` of 1 000 rows, and its columnar
// twin `caccounts`: branch = id % 10, so `branch = 3` selects 100; balance
// = 100 everywhere. `regions` (rid 0..2) is replicated on every DN.
func learnAccounts(t *testing.T) (*Cluster, *Session) {
	t.Helper()
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&sb, ",(%d, %d, 100)", i, i%10)
	}
	for table, using := range map[string]string{"accounts": "", "caccounts": " USING COLUMN"} {
		mustExec(t, s, "CREATE TABLE "+table+" (id BIGINT, branch BIGINT, balance BIGINT) DISTRIBUTE BY HASH(id)"+using)
		mustExec(t, s, "INSERT INTO "+table+" VALUES "+sb.String()[1:])
		if err := c.Analyze(table); err != nil {
			t.Fatal(err)
		}
	}
	mustExec(t, s, "CREATE TABLE regions (rid BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
	mustExec(t, s, "INSERT INTO regions VALUES (0, 'r0'), (1, 'r1'), (2, 'r2')")
	c.Learning = true
	c.Store.CaptureRatio = 1 // capture every step whose count is whole
	return c, s
}

// TestLearnedStepIsWhatItsPredicateSelects: a scan step is learned at the
// rows its predicate selects on the data nodes — not at what a pushed TopN,
// LIMIT or bloom filter lets through — and so are the scans under a DN-side
// join and a pushed aggregate, whose own operators never run. A count cut
// short (a bare LIMIT's scan, a join under a LIMIT) is not learned at all.
// EXPLAIN ANALYZE lists every step at the count the store learns. Row and
// columnar storage count alike.
func TestLearnedStepIsWhatItsPredicateSelects(t *testing.T) {
	const (
		branch3 = "SCAN(ACCOUNTS, PREDICATE(ACCOUNTS.BRANCH = 3))"
		all     = "SCAN(ACCOUNTS)"
		balance = "SCAN(ACCOUNTS, PREDICATE(ACCOUNTS.BALANCE = 100))"
		colJoin = "JOIN(SCAN(ACCOUNTS), SCAN(ACCOUNTS, PREDICATE(ACCOUNTS.BRANCH = 3)), PREDICATE(ACCOUNTS.ID = ACCOUNTS.ID))"
	)
	cases := []struct {
		name, sql string
		cnJoin    bool             // plan the join at the coordinator (its probe scan takes a bloom filter)
		learned   map[string]int64 // the store holds exactly these
	}{
		{"topn", "SELECT id FROM accounts WHERE branch = 3 ORDER BY id LIMIT 2", false,
			map[string]int64{branch3: 100}},
		{"bare limit", "SELECT id FROM accounts WHERE branch = 3 LIMIT 2", false,
			map[string]int64{}},
		{"join under limit", "SELECT a.id FROM accounts a, accounts b WHERE a.id = b.id AND a.branch = 3 LIMIT 2", false,
			map[string]int64{branch3: 100, all: 1000}},
		{"dn join", "SELECT a.id FROM accounts a, accounts b WHERE a.id = b.id AND a.branch = 3", false,
			map[string]int64{branch3: 100, all: 1000, colJoin: 100}},
		{"replicated side", "SELECT a.id FROM accounts a, regions r WHERE a.branch = r.rid", false,
			map[string]int64{all: 1000, "SCAN(REGIONS)": 3, // every DN scans its copy; one counts it
				"JOIN(SCAN(ACCOUNTS), SCAN(REGIONS), PREDICATE(ACCOUNTS.BRANCH = REGIONS.RID))": 300}},
		{"pushed count", "SELECT count(*) FROM accounts WHERE branch = 3", false,
			map[string]int64{branch3: 100, "AGG(" + branch3 + ")": 1}},
		{"pushed count of all", "SELECT count(*) FROM accounts", false,
			map[string]int64{all: 1000, "AGG(" + all + ")": 1}},
		{"cn bloom join", "SELECT a.id FROM accounts a, accounts b WHERE a.id = b.branch AND a.balance = 100 AND b.id < 20", true,
			map[string]int64{balance: 1000, "SCAN(ACCOUNTS, PREDICATE(ACCOUNTS.ID < 20))": 20,
				"JOIN(SCAN(ACCOUNTS, PREDICATE(ACCOUNTS.BALANCE = 100)), SCAN(ACCOUNTS, PREDICATE(ACCOUNTS.ID < 20)), PREDICATE(ACCOUNTS.BRANCH = ACCOUNTS.ID))": 20}},
	}
	c, s := learnAccounts(t)
	for _, table := range []string{"accounts", "caccounts"} {
		for _, tc := range cases {
			t.Run(table+"/"+tc.name, func(t *testing.T) {
				on := strings.NewReplacer("accounts", table, "ACCOUNTS", strings.ToUpper(table))
				learned := map[string]int64{}
				for step, n := range tc.learned {
					learned[on.Replace(step)] = n
				}
				learnedOn(t, c, s, on.Replace(tc.sql), tc.cnJoin, learned)
			})
		}
	}
	// What a TopN leaves of its scan must not make the next join on the same
	// predicate broadcast a side it should shuffle: the build side selects
	// 100 rows, and broadcasting them to 3 more DNs ships more than the
	// 250-row probe side would once.
	c.Store.Reset()
	mustExec(t, s, "SELECT id FROM accounts WHERE branch = 3 ORDER BY id LIMIT 2")
	base := c.fab.Stats()
	mustExec(t, s, "SELECT a.id, b.id FROM accounts a, accounts b WHERE a.id = b.branch AND a.branch = 3 AND b.id < 250")
	msgs := msgCounts(c.fab.Stats().Sub(base))
	if msgs[transport.ShufflePart.String()] != 24 || msgs[transport.BcastBuild.String()] != 0 {
		t.Errorf("misaligned join after a TopN sent %d shuffle_part and %d bcast_build, want 24 and 0",
			msgs[transport.ShufflePart.String()], msgs[transport.BcastBuild.String()])
	}
}

// learnedOn runs sql on an empty plan store, checks that the store then
// holds exactly learned, and that EXPLAIN ANALYZE lists each of those steps
// at the same count.
func learnedOn(t *testing.T, c *Cluster, s *Session, sql string, cnJoin bool, learned map[string]int64) {
	t.Helper()
	c.JoinPolicy = plan.DistJoinPolicy{Disable: cnJoin}
	defer func() { c.JoinPolicy = plan.DistJoinPolicy{} }()
	c.Store.Reset()
	res := mustExec(t, s, sql)
	if cnJoin && !hasBloomJoin(res.Plan.Root) {
		t.Fatal("the coordinator join pushes no bloom filter into its probe scan")
	}
	got := map[string]int64{}
	for _, e := range c.Store.Entries() {
		got[e.StepText] = int64(e.Actual)
	}
	if fmt.Sprint(got) != fmt.Sprint(learned) {
		t.Errorf("learned %v\nwant    %v", got, learned)
	}
	// EXPLAIN ANALYZE reports the count the store learns.
	explained := map[string]int64{}
	for _, r := range mustExec(t, s, "EXPLAIN ANALYZE "+sql).Rows {
		explained[r[0].Str()] = r[2].Int()
	}
	for step, n := range learned {
		if got, ok := explained[step]; !ok || got != n {
			t.Errorf("EXPLAIN ANALYZE lists %s at %d (listed: %t), want %d", step, got, ok, n)
		}
	}
}

// hasBloomJoin reports whether a coordinator hash join in the tree publishes
// a bloom filter to its probe scan.
func hasBloomJoin(op exec.Operator) bool {
	switch o := op.(type) {
	case *exec.HashJoin:
		return o.Bloom != nil || hasBloomJoin(o.Left) || hasBloomJoin(o.Right)
	case *exec.Counted:
		return hasBloomJoin(o.Child)
	case *exec.Project:
		return hasBloomJoin(o.Child)
	case *exec.Filter:
		return hasBloomJoin(o.Child)
	}
	return false
}

// TestInnerJoinOnPlansLikeCommaList: an inner JOIN … ON tree is a FROM list
// written another way. Its ON conjuncts are WHERE conjuncts — a single-table
// one is pushed into its scan — and its tables are ordered and oriented by
// their estimates, whatever order the text names them in.
func TestInnerJoinOnPlansLikeCommaList(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, 200)
	mustExec(t, s, "CREATE TABLE branches (bid BIGINT, region BIGINT) DISTRIBUTE BY HASH(bid)")
	mustExec(t, s, "CREATE TABLE regions (rid BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO branches VALUES (%d, %d)", i, i%3))
	}
	for i := 0; i < 3; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO regions VALUES (%d, 'r%d')", i, i))
	}
	same := func(joined, listed string) {
		t.Helper()
		for _, prefix := range []string{"EXPLAIN ", ""} {
			j, l := mustExec(t, s, prefix+joined), mustExec(t, s, prefix+listed)
			if fmt.Sprint(j.Rows) != fmt.Sprint(l.Rows) {
				t.Errorf("%s%s\n  gives %v\n%s%s\n  gives %v", prefix, joined, j.Rows, prefix, listed, l.Rows)
			}
		}
	}
	same("SELECT a.id, b.region FROM accounts a JOIN branches b ON a.branch = b.bid AND b.region = 2 WHERE a.id < 120 ORDER BY a.id",
		"SELECT a.id, b.region FROM accounts a, branches b WHERE a.branch = b.bid AND b.region = 2 AND a.id < 120 ORDER BY a.id")

	tables := map[string]string{"a": "accounts a", "b": "branches b", "r": "regions r"}
	preds := []struct{ x, y, on string }{{"a", "b", "a.branch = b.bid"}, {"b", "r", "b.region = r.rid"}}
	for _, order := range [][]string{{"a", "b", "r"}, {"a", "r", "b"}, {"b", "a", "r"}, {"b", "r", "a"}, {"r", "a", "b"}, {"r", "b", "a"}} {
		// The first JOIN carries the predicates between its two tables (a
		// CROSS JOIN if there are none), the second the rest.
		var first, second []string
		for _, p := range preds {
			if slices.Contains(order[:2], p.x) && slices.Contains(order[:2], p.y) {
				first = append(first, p.on)
			} else {
				second = append(second, p.on)
			}
		}
		join1 := " CROSS JOIN " + tables[order[1]]
		if len(first) > 0 {
			join1 = " JOIN " + tables[order[1]] + " ON " + strings.Join(first, " AND ")
		}
		const tail = " r.name <> 'r1' ORDER BY a.id"
		joined := "SELECT a.id, r.name FROM " + tables[order[0]] + join1 + " JOIN " + tables[order[2]] +
			" ON " + strings.Join(second, " AND ") + " WHERE" + tail
		listed := "SELECT a.id, r.name FROM " + tables[order[0]] + ", " + tables[order[1]] + ", " + tables[order[2]] +
			" WHERE " + strings.Join(append(first, second...), " AND ") + " AND" + tail
		same(joined, listed)
	}

	// A WHERE or inner-ON conjunct on a LEFT JOIN's nullable side filters
	// the joined rows, not that side's scan. Account i has branch i % 10,
	// branch j region j % 3; the LEFT JOIN's ON matches branches below 5.
	count := func(keep func(branch int64, matched bool) bool) int64 {
		var n int64
		for i := int64(0); i < 200; i++ {
			if keep(i%10, i%10 < 5) {
				n++
			}
		}
		return n
	}
	for _, tc := range []struct {
		sql  string
		want int64
	}{
		{"SELECT count(*) FROM accounts a LEFT JOIN branches b ON a.branch = b.bid AND b.bid < 5 JOIN regions r ON r.name = 'r0' AND b.region = 1",
			count(func(br int64, m bool) bool { return m && br%3 == 1 })},
		{"SELECT count(*) FROM accounts a LEFT JOIN branches b ON a.branch = b.bid AND b.bid < 5 WHERE b.region = 1",
			count(func(br int64, m bool) bool { return m && br%3 == 1 })},
		{"SELECT count(*) FROM accounts a LEFT JOIN branches b ON a.branch = b.bid AND b.bid < 5 WHERE b.bid IS NULL",
			count(func(br int64, m bool) bool { return !m })},
	} {
		if got := mustExec(t, s, tc.sql).Rows[0][0].Int(); got != tc.want {
			t.Errorf("%s\n  counts %d, want %d", tc.sql, got, tc.want)
		}
	}
}
