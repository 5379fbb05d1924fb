package cluster

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/transport"
)

// setupStar loads a small star schema: fact and big share a distribution
// key (co-located joins), dim is a distributed dimension on its own key,
// dimr is replicated everywhere.
func setupStar(t *testing.T, c *Cluster) *Session {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE fact (k BIGINT, d BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")
	mustExec(t, s, "CREATE TABLE big (b BIGINT, w BIGINT) DISTRIBUTE BY HASH(b)")
	mustExec(t, s, "CREATE TABLE dim (d BIGINT, name TEXT) DISTRIBUTE BY HASH(d)")
	mustExec(t, s, "CREATE TABLE dimr (d BIGINT, rname TEXT) DISTRIBUTE BY REPLICATION")
	for i := 0; i < 120; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO fact VALUES (%d, %d, %d)", i, i%10, i))
	}
	for i := 0; i < 100; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO big VALUES (%d, %d)", i, i*2))
	}
	for i := 0; i < 10; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO dim VALUES (%d, 'dim%d')", i, i))
		mustExec(t, s, fmt.Sprintf("INSERT INTO dimr VALUES (%d, 'rep%d')", i, i))
	}
	for _, tb := range []string{"fact", "big", "dim", "dimr"} {
		if err := c.Analyze(tb); err != nil {
			t.Fatalf("analyze %s: %v", tb, err)
		}
	}
	return s
}

// fingerprint runs a query and returns an order-independent digest of its
// result rows (joins define no output order; strategies and degrees may
// interleave fragments differently).
func fingerprint(t *testing.T, s *Session, sql string) string {
	t.Helper()
	res := mustExec(t, s, sql)
	lines := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, d := range r {
			parts[j] = d.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return fmt.Sprintf("%d rows\n%s", len(lines), strings.Join(lines, "\n"))
}

var starQueries = []struct {
	name string
	sql  string
}{
	// Aligned distribution keys: the co-located path.
	{"colocated", "SELECT fact.k, fact.v, big.w FROM fact, big WHERE fact.k = big.b"},
	// Non-aligned with a small build side: broadcast territory.
	{"smallbuild", "SELECT fact.v, dim.name FROM fact, dim WHERE fact.d = dim.d"},
	// Non-aligned, comparable sizes: shuffle territory.
	{"shuffle", "SELECT fact.v, big.b FROM fact, big WHERE fact.d = big.w"},
	// Replicated build side: co-located by definition.
	{"replicated", "SELECT fact.v, dimr.rname FROM fact, dimr WHERE fact.d = dimr.d"},
	// Residual predicate on top of the equi-join.
	{"residual", "SELECT fact.v, dim.name FROM fact, dim WHERE fact.d = dim.d AND fact.v + dim.d > 30"},
	// Three-way: greedy ordering + one dist join per pair.
	{"threeway", "SELECT fact.v, big.w, dim.name FROM fact, big, dim WHERE fact.k = big.b AND fact.d = dim.d"},
}

// reverseFrom rewrites "SELECT … FROM a, b, c WHERE …" with its FROM items
// in reverse order: the same query, written the other way round.
func reverseFrom(sql string) string {
	from, where := strings.Index(sql, " FROM ")+len(" FROM "), strings.Index(sql, " WHERE ")
	items := strings.Split(sql[from:where], ", ")
	slices.Reverse(items)
	return sql[:from] + strings.Join(items, ", ") + sql[where:]
}

// TestDistJoinIdentityMatrix checks every strategy × parallel degree ×
// pushdown off/on × FROM order produces exactly the rows the CN-fallback
// reference does.
func TestDistJoinIdentityMatrix(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupStar(t, c)

	// Reference: distributed joins off, sequential scans, NDP on.
	refs := map[string]string{}
	c.JoinPolicy = plan.DistJoinPolicy{Disable: true}
	c.ParallelDegree = 1
	for _, q := range starQueries {
		refs[q.name] = fingerprint(t, s, q.sql)
		if strings.HasPrefix(refs[q.name], "0 rows") {
			t.Fatalf("reference for %s is empty; fixture broken", q.name)
		}
	}

	policies := []struct {
		name string
		pol  plan.DistJoinPolicy
	}{
		{"auto", plan.DistJoinPolicy{}},
		{"force-colocated", plan.DistJoinPolicy{Force: plan.DistColocated}},
		{"force-broadcast", plan.DistJoinPolicy{Force: plan.DistBroadcast}},
		{"force-shuffle", plan.DistJoinPolicy{Force: plan.DistShuffle}},
		{"cn-fallback", plan.DistJoinPolicy{Disable: true}},
	}
	for _, pol := range policies {
		for _, degree := range []int{1, 2, 4} {
			for _, level := range []plan.PushdownLevel{plan.PushdownBloom, plan.PushdownOff} {
				c.JoinPolicy = pol.pol
				c.ParallelDegree = degree
				c.Pushdown = level
				for _, q := range starQueries {
					for _, sql := range []string{q.sql, reverseFrom(q.sql)} {
						got := fingerprint(t, s, sql)
						if got != refs[q.name] {
							t.Errorf("%s/%s degree=%d pushdown=%s: results differ from reference for %q\n got: %.120s\nwant: %.120s",
								pol.name, q.name, degree, level, sql, got, refs[q.name])
						}
					}
				}
			}
		}
	}
}

// joinDelta runs one query and returns the fabric byte delta per message
// type.
func joinDelta(t *testing.T, c *Cluster, s *Session, sql string) transport.Stats {
	t.Helper()
	base := c.Fabric().Stats()
	mustExec(t, s, sql)
	return c.Fabric().Stats().Sub(base)
}

// TestDistJoinStrategyBytes checks each strategy uses exactly its own
// message kinds, and that pushing the join to the DNs moves strictly
// fewer bytes than the CN fallback on the aligned star join.
func TestDistJoinStrategyBytes(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupStar(t, c)
	c.ParallelDegree = 4
	const aligned = "SELECT fact.k, fact.v, big.w FROM fact, big WHERE fact.k = big.b"
	const skewed = "SELECT fact.v, dim.name FROM fact, dim WHERE fact.d = dim.d"

	c.JoinPolicy = plan.DistJoinPolicy{Disable: true}
	cn := joinDelta(t, c, s, aligned)
	if cn.Get(transport.ShufflePart).Bytes != 0 || cn.Get(transport.BcastBuild).Bytes != 0 {
		t.Errorf("CN fallback used dist-join messages: %+v", cn)
	}

	c.JoinPolicy = plan.DistJoinPolicy{Force: plan.DistColocated}
	co := joinDelta(t, c, s, aligned)
	if co.Get(transport.ShufflePart).Bytes != 0 || co.Get(transport.BcastBuild).Bytes != 0 {
		t.Errorf("co-located join crossed the fabric with shuffle/broadcast: %+v", co)
	}
	if co.TotalBytes() >= cn.TotalBytes() {
		t.Errorf("co-located join moved %d bytes, CN fallback %d; pushing the join down must save fabric traffic",
			co.TotalBytes(), cn.TotalBytes())
	}

	c.JoinPolicy = plan.DistJoinPolicy{Force: plan.DistShuffle}
	sh := joinDelta(t, c, s, skewed)
	if sh.Get(transport.ShufflePart).Bytes == 0 {
		t.Error("forced shuffle sent no shuffle_part bytes")
	}
	if sh.Get(transport.BcastBuild).Bytes != 0 {
		t.Errorf("shuffle join sent bcast_build bytes: %+v", sh)
	}

	c.JoinPolicy = plan.DistJoinPolicy{Force: plan.DistBroadcast}
	bc := joinDelta(t, c, s, skewed)
	if bc.Get(transport.BcastBuild).Bytes == 0 {
		t.Error("forced broadcast sent no bcast_build bytes")
	}
	if bc.Get(transport.ShufflePart).Bytes != 0 {
		t.Errorf("broadcast join sent shuffle_part bytes: %+v", bc)
	}

	// Auto mode on the small-build query picks broadcast (statistics put
	// the dimension well under fact/(n-1)).
	c.JoinPolicy = plan.DistJoinPolicy{}
	auto := joinDelta(t, c, s, skewed)
	if auto.Get(transport.BcastBuild).Bytes == 0 {
		t.Error("auto policy did not broadcast the small dimension build side")
	}
}

// setupE20 loads E20's star schema at a quarter of its size, analysed: two
// columnar fact tables sharing a distribution key and a 64-row dimension on
// its own.
func setupE20(t *testing.T, c *Cluster) *Session {
	t.Helper()
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE jfact (k BIGINT, d BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	mustExec(t, s, "CREATE TABLE jfact2 (k BIGINT, w BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	mustExec(t, s, "CREATE TABLE jdim (id BIGINT, tag BIGINT) DISTRIBUTE BY HASH(id)")
	var f1, f2, dim []string
	for i := 0; i < 2048; i++ {
		f1 = append(f1, fmt.Sprintf("(%d, %d, %d)", i, i%64, i))
		f2 = append(f2, fmt.Sprintf("(%d, %d)", i, i*2))
	}
	for i := 0; i < 64; i++ {
		dim = append(dim, fmt.Sprintf("(%d, %d)", i, i*10))
	}
	mustExec(t, s, "INSERT INTO jfact VALUES "+strings.Join(f1, ", "))
	mustExec(t, s, "INSERT INTO jfact2 VALUES "+strings.Join(f2, ", "))
	mustExec(t, s, "INSERT INTO jdim VALUES "+strings.Join(dim, ", "))
	for _, tb := range []string{"jfact", "jfact2", "jdim"} {
		if err := c.Analyze(tb); err != nil {
			t.Fatalf("analyze %s: %v", tb, err)
		}
	}
	return s
}

// TestJoinOrientationIgnoresFromOrder checks that the planner builds on the
// side its estimates call smaller whichever side is written first: on E20's
// three shapes, both FROM orders pick the same strategy and send the same
// messages and bytes of every kind, and both return the CN fallback's rows.
func TestJoinOrientationIgnoresFromOrder(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupE20(t, c)
	c.ParallelDegree = 4
	queries := []struct{ name, sql, strategy string }{
		{"aligned", "SELECT f.k, f.v, g.w FROM jfact f, jfact2 g WHERE f.k = g.k AND f.v < 400", "colocated"},
		{"smalldim", "SELECT f.v, d.tag FROM jfact f, jdim d WHERE f.d = d.id AND f.v < 400", "broadcast"},
		// The filtered jfact is the build side, so it is broadcast rather
		// than both sides shuffled.
		{"repart", "SELECT f.v, g.w FROM jfact f, jfact2 g WHERE f.d = g.w AND f.v < 400", "broadcast"},
	}
	strategyOf := func(d transport.Stats) string {
		switch {
		case d.Get(transport.BcastBuild).Count > 0:
			return "broadcast"
		case d.Get(transport.ShufflePart).Count > 0:
			return "shuffle"
		}
		return "colocated"
	}
	for _, q := range queries {
		c.JoinPolicy = plan.DistJoinPolicy{Disable: true}
		want := fingerprint(t, s, q.sql)
		c.JoinPolicy = plan.DistJoinPolicy{}
		var first transport.Stats
		for i, sql := range []string{q.sql, reverseFrom(q.sql)} {
			d := joinDelta(t, c, s, sql)
			if got := strategyOf(d); got != q.strategy {
				t.Errorf("%s: %q ran %s, want %s", q.name, sql, got, q.strategy)
			}
			if i == 0 {
				first = d
			} else if !maps.Equal(msgCounts(d), msgCounts(first)) || !maps.Equal(byteCounts(d), byteCounts(first)) {
				t.Errorf("%s: the two FROM orders sent %v / %v B, want %v / %v B",
					q.name, msgCounts(d), byteCounts(d), msgCounts(first), byteCounts(first))
			}
			if got := fingerprint(t, s, sql); got != want {
				t.Errorf("%s: %q differs from the CN fallback\n got: %.120s\nwant: %.120s", q.name, sql, got, want)
			}
		}
	}
}

// byteCounts renders a stats delta as type -> bytes, zero entries left out.
func byteCounts(d transport.Stats) map[string]int64 {
	out := map[string]int64{}
	for _, st := range d {
		if st.Bytes != 0 {
			out[st.Type.String()] = st.Bytes
		}
	}
	return out
}

// TestJoinProbeAllocationsFollowMatches is a ceiling on what a co-located
// join allocates per probe row that cannot match: each DN builds its table
// before it scans its probe partition, and the scan drops the rows the
// table's bloom filter rejects before materializing them. Growing the probe
// table fourfold, with the 200 matches unchanged, may add only the filter's
// false positives and per-segment scan state — not a row per probe row.
func TestJoinProbeAllocationsFollowMatches(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := c.NewSession()
	c.ParallelDegree = 1
	mustExec(t, s, "CREATE TABLE pbuild (k BIGINT, w BIGINT) DISTRIBUTE BY HASH(k)")
	mustExec(t, s, "CREATE TABLE pprobe (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	insert := func(table string, lo, hi int) {
		for ; lo < hi; lo += 1024 {
			var vals []string
			for i := lo; i < min(lo+1024, hi); i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*3))
			}
			mustExec(t, s, "INSERT INTO "+table+" VALUES "+strings.Join(vals, ", "))
		}
		if err := c.Analyze(table); err != nil {
			t.Fatal(err)
		}
	}
	const q = "SELECT p.v, b.w FROM pprobe p, pbuild b WHERE p.k = b.k"
	allocs := func() float64 {
		if n := len(mustExec(t, s, q).Rows); n != 200 {
			t.Fatalf("join returned %d rows, want 200", n)
		}
		return testing.AllocsPerRun(20, func() { mustExec(t, s, q) })
	}
	insert("pbuild", 0, 200)
	insert("pprobe", 0, 4096)
	small := allocs()
	insert("pprobe", 4096, 16384)
	large := allocs()
	// 12 288 more probe rows: materializing each would add at least as many
	// allocations. The bloom filter (10 bits per key, 512 bits at least)
	// passes a few per cent of them, ~900 allocations.
	const ceiling = 2048
	if large-small >= ceiling {
		t.Errorf("allocations grew from %.0f to %.0f (+%.0f) with the probe table, want < +%d", small, large, large-small, ceiling)
	}
	t.Logf("allocs per join: %.0f at 4096 probe rows, %.0f at 16384", small, large)
}

// TestShuffleStreamDropRetries injects a drop fault on every DN->DN
// exchange link, under shuffle and under broadcast (the same exchange with
// only the build side routed): the statement must fail cleanly (no hang, no
// partial results), and a retry after clearing faults must match the
// reference.
func TestShuffleStreamDropRetries(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupStar(t, c)
	const q = "SELECT fact.v, big.b FROM fact, big WHERE fact.d = big.w"

	c.JoinPolicy = plan.DistJoinPolicy{Disable: true}
	want := fingerprint(t, s, q)

	c.ParallelDegree = 4
	n := c.DataNodeCount()
	for _, strategy := range []plan.DistStrategy{plan.DistShuffle, plan.DistBroadcast} {
		c.JoinPolicy = plan.DistJoinPolicy{Force: strategy}
		got := fingerprint(t, s, q)
		if got != want {
			t.Fatalf("%s result differs before fault:\n got: %.120s\nwant: %.120s", strategy, got, want)
		}

		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					c.Fabric().InjectFault(transport.DN(i), transport.DN(j), transport.Fault{
						Types: []transport.MsgType{transport.ShufflePart, transport.BcastBuild},
						Drop:  true,
					})
				}
			}
		}
		if _, err := s.Exec(q); err == nil {
			t.Fatalf("%s join succeeded with every DN->DN link dropping", strategy)
		}

		c.Fabric().ClearFaults()
		for i := 0; i < 3; i++ { // retries stay clean; no leaked producer state
			if got := fingerprint(t, s, q); got != want {
				t.Fatalf("%s retry %d after fault differs:\n got: %.120s\nwant: %.120s", strategy, i, got, want)
			}
		}
	}
}

// TestShuffleJoinNoDeadlockAtDegreeOne is the regression for the E18 hang:
// with producers admitted through a ParallelDegree-sized semaphore, a late
// source could win the only slot, fill its bounded queue and park, while
// every consumer waited (in source order) on a source still queued for the
// slot. Needs more rows per (source, partition) queue than the queue holds;
// a broadcast, which sends every build row to every target, runs through
// the same queues.
func TestShuffleJoinNoDeadlockAtDegreeOne(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	const rows = 6 * shuffleQueueCap * shuffleBatchRows // 2 sources x 2 partitions: ~1.5 queues' worth each
	for _, tb := range []string{"sja", "sjb"} {
		mustExec(t, s, fmt.Sprintf("CREATE TABLE %s (k BIGINT, j BIGINT) DISTRIBUTE BY HASH(k)", tb))
		mustExec(t, s, "BEGIN")
		for lo := 0; lo < rows; lo += 512 {
			var sb strings.Builder
			fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", tb)
			for i := lo; i < lo+512; i++ {
				if i > lo {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "(%d, %d)", i, i)
			}
			mustExec(t, s, sb.String())
		}
		mustExec(t, s, "COMMIT")
	}
	c.ParallelDegree = 1

	type outcome struct {
		res *Result
		err error
	}
	for _, strategy := range []plan.DistStrategy{plan.DistShuffle, plan.DistBroadcast} {
		c.JoinPolicy = plan.DistJoinPolicy{Force: strategy}
		done := make(chan outcome, 1)
		go func() {
			res, err := s.Exec("SELECT count(*) FROM sja, sjb WHERE sja.j = sjb.j")
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				t.Fatal(o.err)
			}
			if got := o.res.Rows[0][0].Int(); got != rows {
				t.Fatalf("%s join count = %d, want %d", strategy, got, rows)
			}
		case <-time.After(10 * time.Second):
			buf := make([]byte, 1<<20)
			t.Fatalf("%s join did not finish in 10s; goroutines:\n%s", strategy, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestDistJoinAfterMoveBucket reruns joins after bucket migration onto a
// new node: ownership fencing must keep results identical, and the grown
// node set must serve join fragments.
func TestDistJoinAfterMoveBucket(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupStar(t, c)
	c.ParallelDegree = 2

	queries := []string{
		"SELECT fact.k, fact.v, big.w FROM fact, big WHERE fact.k = big.b",
		"SELECT fact.v, dim.name FROM fact, dim WHERE fact.d = dim.d",
	}
	c.JoinPolicy = plan.DistJoinPolicy{Disable: true}
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = fingerprint(t, s, q)
	}

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.ExpansionPlan(id) {
		if _, err := c.MoveBucket(b, id); err != nil {
			t.Fatalf("MoveBucket(%d, %d): %v", b, id, err)
		}
	}

	for _, pol := range []plan.DistJoinPolicy{
		{},
		{Force: plan.DistColocated},
		{Force: plan.DistShuffle},
		{Force: plan.DistBroadcast},
	} {
		c.JoinPolicy = pol
		for i, q := range queries {
			if got := fingerprint(t, s, q); got != want[i] {
				t.Errorf("policy %+v query %d differs after MoveBucket:\n got: %.120s\nwant: %.120s", pol, i, got, want[i])
			}
		}
	}
}

// TestDistJoinPlanTime checks the planner reports its (budgeted) planning
// time on join statements.
func TestDistJoinPlanTime(t *testing.T) {
	c := newCluster(t, 4, ModeGTMLite)
	s := setupStar(t, c)
	res := mustExec(t, s, "SELECT fact.v, big.w, dim.name FROM fact, big, dim WHERE fact.k = big.b AND fact.d = dim.d")
	if res.PlanTime <= 0 {
		t.Errorf("PlanTime = %v, want > 0", res.PlanTime)
	}
}
