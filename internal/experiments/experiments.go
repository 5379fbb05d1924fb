// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index E1–E21). All lists them in
// order: cmd/fibench runs them and prints their tables, and
// TestExperiments runs each as a subtest. Each returns an error when the
// shape EXPERIMENTS.md reports for it breaks, so both reach one verdict
// from one check.
package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/autonomous"
	"repro/internal/benchfmt"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/dsync"
	"repro/internal/gmdb"
	"repro/internal/gmdb/schema"
	"repro/internal/htap"
	"repro/internal/mme"
	"repro/internal/perfsim"
	"repro/internal/plan"
	"repro/internal/planstore"
	"repro/internal/rebalance"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/tpcc"
	"repro/internal/transport"
	"repro/internal/types"
)

// Experiment is one entry of All: the name cmd/fibench's -exp selects and
// the run at the scale EXPERIMENTS.md's tables were taken at.
type Experiment struct {
	Name string
	Run  func(io.Writer) error
}

// All is every experiment, in the order fibench -exp all runs them.
var All = []Experiment{
	{"fig3", Fig3},
	{"table1", Table1},
	{"fig8", Fig8},
	{"fig11", Fig11},
	{"learn", Learn},
	{"tpcc", TPCC},
	{"ablation", Ablation},
	{"sync", EdgeSync},
	{"mpp", MPPExtensions},
	{"expand", Expand},
	{"parallel", Parallel},
	{"ha", HA},
	{"net", Network},
	{"georepl", GeoRepl},
	{"frontdoor", func(w io.Writer) error { return FrontDoor(w, frontDoorSessions) }},
	{"ndp", NDP},
	{"htap", HTAP},
	{"joins", Joins},
	{"autopilot", Autopilot},
}

const (
	// recordedTxns is how many TPC-C-like transactions RecordPaths runs per
	// protocol: about 260 single- and 40 multi-shard paths each.
	recordedTxns = 300
	// simSeconds is the virtual time each Fig 3 and E8 simulation runs.
	simSeconds = 2.0
	// frontDoorSessions is E17's fleet of concurrent driver sessions.
	frontDoorSessions = 10000
)

// RecordPaths runs the TPC-C-like driver — one session, one transaction at
// a time — on a live 4-DN cluster once per transaction mode, with the
// fabric recording its waits (transport.Fabric.Record), and files each
// committed transaction's waits as a single- or multi-shard path by the
// data nodes it touched. These are the paths the Fig 3 and E8 simulations
// replay: the engine alone decides what each protocol sends.
func RecordPaths() (lite, baseline perfsim.Paths, err error) {
	record := func(mode cluster.TxnMode) (perfsim.Paths, error) {
		var paths perfsim.Paths
		c, err := cluster.New(cluster.Config{DataNodes: 4, Mode: mode})
		if err != nil {
			return paths, err
		}
		cfg := tpcc.DefaultConfig(8, 0.5)
		if err := tpcc.Load(c, cfg); err != nil {
			return paths, err
		}
		fab := c.Fabric()
		fab.Record(true)
		d := tpcc.NewDriver(c, cfg, 1)
		for i := 0; i < recordedTxns; i++ {
			committed := d.Stats.Committed
			if err := d.RunOne(); err != nil {
				return paths, err
			}
			if path := fab.Recorded(); d.Stats.Committed > committed {
				paths.Add(path)
			}
		}
		return paths, nil
	}
	if lite, err = record(cluster.ModeGTMLite); err != nil {
		return
	}
	baseline, err = record(cluster.ModeBaseline)
	return
}

// Fig3 regenerates the paper's Fig 3 (GTM-Lite scalability): throughput vs
// cluster size for GTM-lite and baseline under the 100 % single-shard (SS)
// and 90 % single-shard (MS) TPC-C-like workloads, replaying the live
// engine's recorded paths in the virtual-time simulator. TestFig3Shape
// (internal/perfsim) checks the shape at these sizes and this duration.
func Fig3(w io.Writer) error {
	lite, baseline, err := RecordPaths()
	if err != nil {
		return err
	}
	sizes := []int{1, 2, 4, 8}
	series := map[string][]float64{}
	run := func(paths perfsim.Paths, ss float64) []float64 {
		out := make([]float64, len(sizes))
		for i, n := range sizes {
			p := perfsim.DefaultParams(n, ss)
			p.Duration = simSeconds
			out[i] = perfsim.Run(p, paths).Throughput
		}
		return out
	}
	series["gtm-lite SS"] = run(lite, 1.0)
	series["gtm-lite MS"] = run(lite, 0.9)
	series["baseline SS"] = run(baseline, 1.0)
	series["baseline MS"] = run(baseline, 0.9)

	var rows [][]string
	for i, n := range sizes {
		rows = append(rows, []string{
			fmt.Sprintf("%d", n),
			benchfmt.F(series["gtm-lite SS"][i]),
			benchfmt.F(series["gtm-lite MS"][i]),
			benchfmt.F(series["baseline SS"][i]),
			benchfmt.F(series["baseline MS"][i]),
		})
	}
	benchfmt.Table(w, "Fig 3 — GTM-Lite scalability (txn/s, virtual time)",
		[]string{"nodes", "gtm-lite SS", "gtm-lite MS", "baseline SS", "baseline MS"}, rows)
	fmt.Fprintln(w, "shape check: gtm-lite scales ~linearly; baseline flattens once the")
	fmt.Fprintln(w, "serialized GTM saturates (paper: 'GTM-Lite achieved higher throughput")
	fmt.Fprintln(w, "and scaled out much better than baseline').")
	return nil
}

// Table1 regenerates §II-C Table I: it runs the paper's example query
//
//	select * from OLAP.t1, OLAP.t2
//	where OLAP.t1.a1=OLAP.t2.a2 and OLAP.t1.b1 > 10
//
// on a live cluster with the learning optimizer capturing, then prints the
// plan store's logical canonical form with estimated and actual rows. The
// run fails unless the store holds exactly table1Steps, each captured
// because its estimate missed.
func Table1(w io.Writer) error {
	db, err := core.Open(core.Options{DataNodes: 2, Learning: true})
	if err != nil {
		return err
	}
	defer db.Close()
	db.MustExec("CREATE TABLE olap.t1 (a1 BIGINT, b1 BIGINT) DISTRIBUTE BY HASH(a1)")
	db.MustExec("CREATE TABLE olap.t2 (a2 BIGINT, c2 TEXT) DISTRIBUTE BY HASH(a2)")
	s := db.Session()
	// Skewed data without ANALYZE: the optimizer's default estimates are
	// off, so the executor captures the steps (the paper's trigger:
	// "a big differential between actual and estimated row counts").
	for i := 0; i < 150; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO olap.t1 VALUES (%d, %d)", i%25, i)); err != nil {
			return err
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO olap.t2 VALUES (%d, 'n%d')", i, i)); err != nil {
			return err
		}
	}
	if _, err := db.Query("select * from OLAP.t1, OLAP.t2 where OLAP.t1.a1=OLAP.t2.a2 and OLAP.t1.b1 > 10"); err != nil {
		return err
	}
	entries := db.PlanStore().Entries()
	var rows [][]string
	for _, e := range entries {
		rows = append(rows, []string{e.StepText, benchfmt.F(e.Estimated), benchfmt.F(e.Actual), e.Hash[:8] + "…"})
	}
	benchfmt.Table(w, "Table I — logical canonical form (plan store contents)",
		[]string{"Step Description", "Estimate", "Actual", "MD5 key"}, rows)
	if len(entries) != len(table1Steps) {
		return fmt.Errorf("table1: plan store holds %d steps, want %d", len(entries), len(table1Steps))
	}
	for i, e := range entries {
		want := table1Steps[i]
		if e.Hash[:8] != want.key || e.Actual != want.actual {
			return fmt.Errorf("table1: step %d is %s… with %v rows, want %s… with %v (%s)",
				i, e.Hash[:8], e.Actual, want.key, want.actual, e.StepText)
		}
		if e.Estimated == e.Actual {
			return fmt.Errorf("table1: step %s… estimated exactly, nothing to capture", want.key)
		}
	}
	return nil
}

// table1Steps is Table I as the plan store keys it: the MD5 prefix of each
// step's canonical text and the rows it produced — the join, the filtered
// t1 scan and the t2 scan.
var table1Steps = []struct {
	key    string
	actual float64
}{{"229c9dac", 139}, {"a2c2cfd3", 139}, {"71c76b08", 25}}

// Fig8 regenerates the MME schema conversion matrix.
func Fig8(w io.Writer) error {
	reg := schema.NewRegistry()
	if err := mme.RegisterAll(reg); err != nil {
		return err
	}
	m := mme.ConversionMatrix(reg)
	headers := []string{"MME"}
	for _, v := range mme.Versions {
		headers = append(headers, fmt.Sprintf("V%d", v))
	}
	var rows [][]string
	for i, v := range mme.Versions {
		row := []string{fmt.Sprintf("V%d", v)}
		row = append(row, m[i]...)
		rows = append(rows, row)
	}
	benchfmt.Table(w, "Fig 8 — multiple schema conversions in MME versions", headers, rows)
	return nil
}

// Fig11 regenerates the GMDB online schema evolution experiment: read
// throughput with and without on-the-fly conversion, plus the delta-sync
// vs whole-object bandwidth comparison, over synthetic MME sessions
// (4.7–6.9 KB encoded; the paper's are 5–10 KB). The run fails unless
// delta sync moves under a tenth of the whole-object bytes.
func Fig11(w io.Writer) error {
	const sessions, opsPerCase = 200, 2000
	reg := schema.NewRegistry()
	if err := mme.RegisterAll(reg); err != nil {
		return err
	}
	store := gmdb.NewStore(reg, gmdb.Config{Partitions: 2})
	defer store.Close()

	rng := rand.New(rand.NewSource(1))
	keys := make([]string, sessions)
	for i := 0; i < sessions; i++ {
		obj, err := mme.GenerateSession(rng, 5, int64(i))
		if err != nil {
			return err
		}
		keys[i] = fmt.Sprintf("imsi-%d", i)
		if err := store.Put(keys[i], obj); err != nil {
			return err
		}
	}

	measure := func(version int) (float64, error) {
		start := time.Now()
		for i := 0; i < opsPerCase; i++ {
			if _, err := store.Get(keys[i%len(keys)], version); err != nil {
				return 0, err
			}
		}
		return float64(opsPerCase) / time.Since(start).Seconds(), nil
	}
	cases := []struct {
		name    string
		version int
	}{
		{"read, same version (V5->V5)", 5},
		{"read, upgrade (V5->V6)", 6},
		{"read, downgrade (V5->V3)", 3},
		{"read, multi-hop (V5->V8)", 8},
	}
	// One untimed pass first: the first timed case must not pay for a cold
	// store.
	if _, err := measure(5); err != nil {
		return err
	}
	var reads [][]string
	for _, c := range cases {
		opsPerSec, err := measure(c.version)
		if err != nil {
			return err
		}
		reads = append(reads, []string{c.name, benchfmt.F(opsPerSec)})
	}

	// Delta vs whole-object update bandwidth via a subscriber (the client
	// sync path).
	sub, err := store.Subscribe(keys[0], 6, 4096)
	if err != nil {
		return err
	}
	defer sub.Cancel()
	for i := 0; i < opsPerCase/10+1; i++ {
		obj, _ := mme.GenerateSession(rng, 5, int64(0))
		if err := store.Put(keys[0], obj); err != nil {
			return err
		}
		d, _ := mme.SessionDelta(rng, 5, "imsi-0", 0)
		if err := store.ApplyDelta(keys[0], d); err != nil {
			return err
		}
	}
	st := store.Fabric().Stats()
	full, delta := st.Get(transport.GMDBPub).Bytes, st.Get(transport.GMDBDelta).Bytes

	benchfmt.Table(w, "Fig 11 — GMDB online schema evolution (synthetic MME sessions)",
		[]string{"case", "ops/s"}, reads)
	benchfmt.Table(w, "Fig 11 companion — delta vs whole-object sync (same update count)",
		[]string{"sync mode", "bytes"},
		[][]string{
			{"whole object", fmt.Sprintf("%d", full)},
			{"delta object", fmt.Sprintf("%d", delta)},
		})
	if delta <= 0 || 10*delta >= full {
		return fmt.Errorf("fig11: delta sync moved %d B vs %d B whole-object — wanted under a tenth", delta, full)
	}
	return nil
}

// learnJoinRun is one execution of E6's misaligned join: the distributed
// strategy its estimates chose, what it cost on the fabric, and the mean
// Q-error over its steps — both scans, which run on the data nodes, and the
// join.
type learnJoinRun struct {
	strategy    string
	bytes, msgs int64
	qerr        float64
}

// learnJoin is E6's join: `orders.cust` is not a distribution key, so the
// join broadcasts or shuffles. The customer predicate is a correlated pair
// (tier = region on every row), which the histograms take for independent:
// they expect 40 customers where 400 qualify, and the cold plan broadcasts
// them to every DN. Learned, the customer side is too large to broadcast,
// and the warm plan shuffles.
const learnJoin = "SELECT o.o, c.c FROM orders o, custs c WHERE o.cust = c.c AND o.status = 1 AND c.region = 1 AND c.tier = 1"

// Learn (E6) measures cardinality-estimation quality (Q-error) on a canned
// reporting workload before and after the plan store learns actuals, then
// runs a misaligned join cold and warm: the learned side counts flip its
// strategy. The run fails unless warm every step of every query — the
// join's data-node scans included — is estimated exactly and the cold
// plan's broadcast turns into a shuffle that moves fewer bytes. Message
// counts are exact: the fabric counts messages, not time.
func Learn(w io.Writer) error {
	db, err := core.Open(core.Options{DataNodes: 4, Learning: true})
	if err != nil {
		return err
	}
	defer db.Close()
	s := db.Session()
	var facts, orders, custs strings.Builder
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		grp := int64(0) // zipf-ish skew the histogram cannot capture per-value
		if rng.Float64() > 0.8 {
			grp = int64(1 + rng.Intn(50))
		}
		fmt.Fprintf(&facts, ",(%d, %d, %d)", i, grp, rng.Intn(1000))
	}
	for i := 0; i < 1000; i++ {
		fmt.Fprintf(&orders, ",(%d, %d, %d)", i, i, i%2)
	}
	for i := 0; i < 4000; i++ {
		fmt.Fprintf(&custs, ",(%d, %d, %d)", i, i%10, i%10)
	}
	for _, sql := range []string{
		"CREATE TABLE facts (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)",
		"CREATE TABLE orders (o BIGINT, cust BIGINT, status BIGINT) DISTRIBUTE BY HASH(o)",
		"CREATE TABLE custs (c BIGINT, region BIGINT, tier BIGINT) DISTRIBUTE BY HASH(c)",
		"INSERT INTO facts VALUES " + facts.String()[1:],
		"INSERT INTO orders VALUES " + orders.String()[1:],
		"INSERT INTO custs VALUES " + custs.String()[1:],
	} {
		if _, err := s.Exec(sql); err != nil {
			return err
		}
	}
	for _, t := range []string{"facts", "orders", "custs"} {
		if err := db.Analyze(t); err != nil {
			return err
		}
	}
	queries := []string{
		"SELECT * FROM facts WHERE grp = 0",
		"SELECT * FROM facts WHERE grp = 7",
		"SELECT count(*) FROM facts WHERE grp = 0 AND v < 500",
	}
	fab := db.Cluster().Fabric()
	// pass runs every query once; the mean Q-error is over every step.
	pass := func(join *learnJoinRun) (float64, error) {
		total, n := 0.0, 0
		for _, q := range append(queries, learnJoin) {
			before := fab.Stats()
			res, err := db.Query(q)
			if err != nil {
				return 0, err
			}
			d := fab.Stats().Sub(before)
			qerr := 0.0
			for _, c := range res.Plan.Counted {
				qerr += planstore.QError(c.EstimatedRows, float64(c.ActualRows))
			}
			total, n = total+qerr, n+len(res.Plan.Counted)
			if q == learnJoin {
				join.strategy = "shuffle"
				if d.Get(transport.BcastBuild).Count > 0 {
					join.strategy = "broadcast"
				}
				join.bytes, join.msgs = d.TotalBytes(), d.Total()
				join.qerr = qerr / float64(len(res.Plan.Counted))
			}
		}
		return total / float64(n), nil
	}
	var cold, warm learnJoinRun
	qerrCold, err := pass(&cold)
	if err != nil {
		return err
	}
	// Second pass: the consumer now serves captured actuals.
	qerrWarm, err := pass(&warm)
	if err != nil {
		return err
	}
	benchfmt.Table(w, "Learning optimizer — mean Q-error over every step of the canned workload (E6)",
		[]string{"pass", "mean q-error"},
		[][]string{
			{"cold (histogram estimates)", benchfmt.F(qerrCold)},
			{"warm (plan-store actuals)", benchfmt.F(qerrWarm)},
		})
	joinRow := func(pass string, r learnJoinRun) []string {
		return []string{pass, r.strategy, fmt.Sprintf("%d", r.bytes), fmt.Sprintf("%d", r.msgs), benchfmt.F(r.qerr)}
	}
	benchfmt.Table(w, "Learning optimizer — misaligned join, 1 000 orders × 4 000 customers @4 DNs (E6)",
		[]string{"pass", "strategy", "B/q", "messages", "mean q-error"},
		[][]string{joinRow("cold", cold), joinRow("warm", warm)})

	if qerrWarm != 1 || warm.qerr != 1 {
		return fmt.Errorf("learn: warm mean q-error %v (join %v), want 1 over every step", qerrWarm, warm.qerr)
	}
	if qerrCold <= qerrWarm || cold.qerr <= 1 {
		return fmt.Errorf("learn: cold mean q-error %v (join %v): nothing to learn", qerrCold, cold.qerr)
	}
	for _, c := range []struct {
		pass     string
		run      learnJoinRun
		strategy string
		msgs     int64
	}{{"cold", cold, "broadcast", 22}, {"warm", warm, "shuffle", 34}} {
		if c.run.strategy != c.strategy || c.run.msgs != c.msgs {
			return fmt.Errorf("learn: %s join ran %s in %d messages, want %s in %d", c.pass, c.run.strategy, c.run.msgs, c.strategy, c.msgs)
		}
	}
	if warm.bytes >= cold.bytes {
		return fmt.Errorf("learn: warm join moved %d B, not fewer than the cold plan's %d B", warm.bytes, cold.bytes)
	}
	return nil
}

// TPCC validates the GTM-lite protocol on the live engine: commit counts,
// multi-shard fraction and GTM traffic for both modes and both workload
// mixes. The run fails when a cell breaks the TPC-C invariants
// (tpcc.CheckInvariants: money conservation among them).
func TPCC(w io.Writer) error {
	const txns = 200
	type caseDef struct {
		mode cluster.TxnMode
		ss   float64
	}
	cases := []caseDef{
		{cluster.ModeGTMLite, 1.0},
		{cluster.ModeGTMLite, 0.9},
		{cluster.ModeBaseline, 1.0},
		{cluster.ModeBaseline, 0.9},
	}
	var rows [][]string
	for _, cd := range cases {
		c, err := cluster.New(cluster.Config{DataNodes: 4, Mode: cd.mode})
		if err != nil {
			return err
		}
		cfg := tpcc.DefaultConfig(4, cd.ss)
		if err := tpcc.Load(c, cfg); err != nil {
			return err
		}
		base := c.GTMStats().Total()
		d := tpcc.NewDriver(c, cfg, 0)
		if err := d.Run(txns); err != nil {
			return err
		}
		gtmReqs := c.GTMStats().Total() - base // before the (scatter) invariant queries
		if err := tpcc.CheckInvariants(c, cfg); err != nil {
			return fmt.Errorf("tpcc: %s at %s single-shard: %w", cd.mode, benchfmt.Pct(cd.ss), err)
		}
		rows = append(rows, []string{
			cd.mode.String(),
			benchfmt.Pct(cd.ss),
			fmt.Sprintf("%d", d.Stats.Committed),
			fmt.Sprintf("%d", d.Stats.MultiShard),
			fmt.Sprintf("%d", gtmReqs),
		})
	}
	benchfmt.Table(w, "TPC-C protocol validation on the live engine (E1 companion)",
		[]string{"mode", "single-shard", "committed", "multi-shard", "GTM requests"}, rows)
	return nil
}

// Ablation (E8) runs two sweeps over the recorded paths (RecordPaths).
// The cross-shard sweep shows GTM-lite's advantage shrinking as
// cross-shard work grows (TestCrossShardFractionSweepMonotone in
// internal/perfsim checks that shape at 4 DNs). The GTM service-time sweep shows the
// baseline flattening earlier the slower the centralized service is; the
// run fails unless baseline throughput falls at every step while GTM-lite
// stays within 1 % of its fastest-GTM throughput.
func Ablation(w io.Writer) error {
	lite, baseline, err := RecordPaths()
	if err != nil {
		return err
	}
	fractions := []float64{1.0, 0.95, 0.9, 0.7, 0.5, 0.0}
	var rows [][]string
	for _, ss := range fractions {
		p := perfsim.DefaultParams(4, ss)
		p.Duration = simSeconds
		rl, rb := perfsim.Run(p, lite), perfsim.Run(p, baseline)
		rows = append(rows, []string{
			benchfmt.Pct(1 - ss),
			benchfmt.F(rl.Throughput),
			benchfmt.F(rb.Throughput),
			fmt.Sprintf("%.2fx", rl.Throughput/rb.Throughput),
		})
	}
	benchfmt.Table(w, "Ablation — cross-shard fraction sweep @4 nodes (E8)",
		[]string{"cross-shard", "gtm-lite txn/s", "baseline txn/s", "speedup"}, rows)

	services := []float64{5e-6, 25e-6, 100e-6}
	rows = nil
	var lites, bases []float64
	for _, svc := range services {
		p := perfsim.DefaultParams(8, 0.9)
		p.GTMService = svc
		p.Duration = simSeconds
		rl, rb := perfsim.Run(p, lite), perfsim.Run(p, baseline)
		lites, bases = append(lites, rl.Throughput), append(bases, rb.Throughput)
		rows = append(rows, []string{
			fmt.Sprintf("%.0fµs", svc*1e6),
			benchfmt.F(rl.Throughput),
			benchfmt.F(rb.Throughput),
			benchfmt.Pct(rb.GTMUtilization),
		})
	}
	benchfmt.Table(w, "Ablation — GTM service time sweep @8 nodes, 90% SS (E8)",
		[]string{"GTM service", "gtm-lite txn/s", "baseline txn/s", "baseline GTM util"}, rows)
	for i := 1; i < len(services); i++ {
		if bases[i] >= bases[i-1] {
			return fmt.Errorf("ablation: baseline %.0f txn/s at a %.0fµs GTM, not below %.0f at %.0fµs",
				bases[i], services[i]*1e6, bases[i-1], services[i-1]*1e6)
		}
		if lites[i] < 0.99*lites[0] {
			return fmt.Errorf("ablation: gtm-lite fell to %.0f txn/s at a %.0fµs GTM from %.0f — wanted flat",
				lites[i], services[i]*1e6, lites[0])
		}
	}
	return nil
}

// EdgeSync (E10) compares device-to-device mesh sync against via-cloud
// sync: convergence time (virtual) and bytes. Mesh and leader star share
// the direct-radio fabric; each row reports its own run's traffic. The run
// fails unless every topology converges, the mesh over direct radio takes
// about a tenth of the via-cloud time (the paper's "at least 10X faster"
// link), and the leader star, a star like via-cloud, moves exactly
// via-cloud's bytes.
func EdgeSync(w io.Writer) error {
	const devices, keysPerDevice = 6, 20
	mkNodes := func() []*dsync.Node {
		var nodes []*dsync.Node
		for i := 0; i < devices; i++ {
			n := dsync.NewNode(fmt.Sprintf("dev%d", i), dsync.Device, nil)
			for j := 0; j < keysPerDevice; j++ {
				n.Put(fmt.Sprintf("n%d/k%d", i, j), make([]byte, 256))
			}
			nodes = append(nodes, n)
		}
		return nodes
	}
	direct, internet := dsync.DefaultLinks()
	mesh := dsync.Converge(mkNodes(), nil, dsync.MeshP2P, direct, 0)
	cloud := dsync.Converge(mkNodes(), dsync.NewNode("cloud", dsync.Cloud, nil), dsync.ViaCloud, internet, 0)
	leader := dsync.Converge(mkNodes(), dsync.NewNode("router", dsync.Edge, nil), dsync.LeaderStar, direct, 0)
	row := func(name string, r dsync.ConvergeResult) []string {
		return []string{name, fmt.Sprintf("%v", r.Converged), fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%d", r.Messages), fmt.Sprintf("%d", r.Bytes), r.SimTime.String()}
	}
	benchfmt.Table(w, "Device-edge-cloud sync: P2P mesh vs via-cloud vs leader (E10)",
		[]string{"topology", "converged", "rounds", "messages", "bytes", "sim time"},
		[][]string{
			row("P2P mesh (direct radio)", mesh),
			row("via cloud (Internet)", cloud),
			row("leader star (router)", leader),
		})
	for name, r := range map[string]dsync.ConvergeResult{"mesh": mesh, "via-cloud": cloud, "leader": leader} {
		if !r.Converged || r.Failed != 0 {
			return fmt.Errorf("sync: %s did not converge cleanly: %+v", name, r)
		}
	}
	if ratio := float64(cloud.SimTime) / float64(mesh.SimTime); ratio < 9 || ratio > 11 {
		return fmt.Errorf("sync: via-cloud %v / mesh %v = %.1f, want about 10", cloud.SimTime, mesh.SimTime, ratio)
	}
	if leader.Bytes != cloud.Bytes {
		return fmt.Errorf("sync: leader star moved %d bytes, via-cloud %d: same star, same traffic", leader.Bytes, cloud.Bytes)
	}
	return nil
}

// Expand (E11) measures online cluster expansion: TPC-C-like traffic runs
// before, during and after a live 2 -> 4 shard rebalance, and prints the
// rebalance counters and the resulting data spread across shards. The run
// fails unless item's checksum and every fixed-cardinality table's row
// count come through unchanged, every planned bucket moved, and each of the
// 4 shards ends owning an equal share of the buckets.
func Expand(w io.Writer) error {
	const txnsPerPhase = 300
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		return err
	}
	cfg := tpcc.DefaultConfig(8, 0.9)
	if err := tpcc.Load(c, cfg); err != nil {
		return err
	}
	// item is the only table TPC-C never writes, so its checksum must come
	// through the migration bit-identical; the mutated fixed-cardinality
	// tables must at least keep their exact row counts.
	fixed := []string{"warehouse", "district", "customer", "stock"}
	beforeCounts := map[string]cluster.TableDigest{}
	for _, tb := range fixed {
		d, err := c.TableChecksum(tb)
		if err != nil {
			return err
		}
		beforeCounts[tb] = d
	}
	itemBefore, err := c.TableChecksum("item")
	if err != nil {
		return err
	}

	var rows [][]string
	drv := tpcc.NewDriver(c, cfg, 1)
	phase := func(name string, run func() error) error {
		pre := drv.Stats
		start := time.Now()
		if err := run(); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		committed := drv.Stats.Committed - pre.Committed
		aborted := drv.Stats.Aborted - pre.Aborted
		rows = append(rows, []string{
			name,
			benchfmt.F(float64(committed) / elapsed),
			fmt.Sprintf("%d", committed),
			fmt.Sprintf("%d", aborted),
			fmt.Sprintf("%d", c.DataNodeCount()),
		})
		return nil
	}

	if err := phase("before", func() error { return drv.Run(txnsPerPhase) }); err != nil {
		return err
	}

	// Expansion in the background; the driver keeps issuing transactions
	// until the last bucket flips. Migration-window aborts (frozen buckets)
	// land in the aborted column — that is the cost of staying online.
	store := autonomous.NewInfoStore(nil)
	r := rebalance.New(c, rebalance.Options{MaxConcurrentMoves: 2, Metrics: store})
	var expErr error
	if err := phase("during expansion", func() error {
		done := make(chan struct{})
		go func() {
			expErr = r.ExpandTo(4)
			close(done)
		}()
		for {
			select {
			case <-done:
				return nil
			default:
				if err := drv.RunOne(); err != nil {
					return err
				}
			}
		}
	}); err != nil {
		return err
	}
	if expErr != nil {
		return expErr
	}

	if err := phase("after", func() error { return drv.Run(txnsPerPhase) }); err != nil {
		return err
	}

	p := r.Progress()
	owned := make([]int, c.DataNodeCount())
	buckets := c.BucketOwners()
	for _, dn := range buckets {
		owned[dn]++
	}
	var spread []string
	for dn, n := range owned {
		spread = append(spread, fmt.Sprintf("dn%d=%d", dn, n))
	}
	benchfmt.Table(w, "Online expansion 2 -> 4 shards under TPC-C-like load (E11)",
		[]string{"phase", "txn/s", "committed", "aborted", "shards"}, rows)
	fmt.Fprintf(w, "buckets moved %d/%d, rows copied %d, retries %d\n",
		p.Moved, p.Planned, p.RowsCopied, p.Retries)
	fmt.Fprintf(w, "hash buckets per shard: %s\n\n", strings.Join(spread, " "))

	if d, err := c.TableChecksum("item"); err != nil {
		return err
	} else if d != itemBefore {
		return fmt.Errorf("expand: item checksum %+v after the expansion, %+v before", d, itemBefore)
	}
	for _, tb := range fixed {
		d, err := c.TableChecksum(tb)
		if err != nil {
			return err
		}
		if d.Rows != beforeCounts[tb].Rows {
			return fmt.Errorf("expand: %s row count changed %d -> %d", tb, beforeCounts[tb].Rows, d.Rows)
		}
	}
	if p.Planned == 0 || p.Moved != p.Planned {
		return fmt.Errorf("expand: moved %d of %d planned buckets", p.Moved, p.Planned)
	}
	if len(owned) != 4 {
		return fmt.Errorf("expand: %d shards after expanding to 4", len(owned))
	}
	for dn, n := range owned {
		if n != len(buckets)/4 {
			return fmt.Errorf("expand: dn%d owns %d of %d buckets, want a quarter", dn, n, len(buckets))
		}
	}
	return nil
}

// MPPExtensions (E12) prints the exchange-volume and vectorized-execution
// ablations on the live engine. The run fails unless each plan shape ships
// the rows its shape implies: 8 groups' partials from each of the 4 shards
// when the aggregate is pushed, every row when it is not.
func MPPExtensions(w io.Writer) error {
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		return err
	}
	defer db.Close()
	s := db.Session()
	for _, ddl := range []string{
		"CREATE TABLE frow (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)",
		"CREATE TABLE fcol (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN",
	} {
		if _, err := s.Exec(ddl); err != nil {
			return err
		}
	}
	for i := 0; i < 10000; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO frow VALUES (%d, %d, %d)", i, i%8, i)); err != nil {
			return err
		}
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO fcol VALUES (%d, %d, %d)", i, i%8, i)); err != nil {
			return err
		}
	}
	type caseDef struct {
		name, sql, table string
		shipped, rows    int64
	}
	cases := []caseDef{
		{"pushdown (mergeable aggs)", "SELECT grp, count(*), sum(v) FROM %s GROUP BY grp", "frow", 32, 8},
		{"gather fallback (avg)", "SELECT grp, avg(v) FROM %s GROUP BY grp", "frow", 10000, 8},
		{"vectorized columnar", "SELECT grp, count(*), sum(v) FROM %s GROUP BY grp", "fcol", 32, 8},
		{"plain scan (reference)", "SELECT * FROM %s", "frow", 10000, 10000},
	}
	var rows [][]string
	var bad error
	for _, cd := range cases {
		start := time.Now()
		res, err := s.Exec(fmt.Sprintf(cd.sql, cd.table))
		if err != nil {
			return err
		}
		if bad == nil && (res.RowsShipped != cd.shipped || int64(len(res.Rows)) != cd.rows) {
			bad = fmt.Errorf("mpp: %s shipped %d rows for %d result rows, want %d for %d",
				cd.name, res.RowsShipped, len(res.Rows), cd.shipped, cd.rows)
		}
		rows = append(rows, []string{
			cd.name,
			fmt.Sprintf("%d", res.RowsShipped),
			fmt.Sprintf("%d", len(res.Rows)),
			time.Since(start).Round(time.Microsecond).String(),
		})
	}
	benchfmt.Table(w, "MPP extensions — two-phase & vectorized aggregation over 10k rows @4 shards (E12)",
		[]string{"plan shape", "rows shipped to CN", "result rows", "latency"}, rows)
	return bad
}

// Parallel regenerates E13 (parallel intra-query execution): latency of a
// selective columnar scatter aggregate at parallel degree 1/2/4 with
// segment pruning on and off, under the per-hop network cost model. The
// degree ablation shows the DN round trips overlapping through the
// exchange operator; the pruning ablation shows zone maps cutting the
// segments (and rows) each DN actually decodes. Queries run inside one
// explicit transaction so the degree-independent 2PC hops are paid once.
// The run fails unless every degree ships the same 32 partial rows and the
// zone maps skip 6 of the 10 sealed segments — half the rows — whenever
// pruning is on.
func Parallel(w io.Writer) error {
	// Load with the cost model off (write hops would dominate the wall
	// clock), then switch it on for the measured queries.
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		return err
	}
	defer db.Close()
	s := db.Session()
	if _, err := s.Exec("CREATE TABLE pfacts (k BIGINT, grp BIGINT, seq BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN"); err != nil {
		return err
	}
	// Ascending seq insertion order keeps each shard's sealed segments
	// carrying tight, nearly disjoint seq zone maps — the layout a
	// time-ordered fact table gets for free.
	const total = 3 * 4 * 8192 // ~3 sealed segments per shard
	if _, err := s.Exec("BEGIN"); err != nil {
		return err
	}
	const batch = 512
	for lo := 0; lo < total; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO pfacts VALUES ")
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d)", i, i%8, i, i)
		}
		if _, err := s.Exec(sb.String()); err != nil {
			return err
		}
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		return err
	}

	const query = "SELECT grp, count(*), sum(v) FROM pfacts WHERE seq < 8000 GROUP BY grp"
	const iters = 5
	c := db.Cluster()
	c.Fabric().SetBaseLatency(3 * time.Millisecond)
	defer c.Fabric().SetBaseLatency(0)
	// scanWant is what one query visits with pruning on and off.
	type scanWant struct{ scanned, pruned, rows int64 }
	wants := map[bool]scanWant{true: {4, 6, total / 2}, false: {10, 0, total}}
	var rows [][]string
	var bad error
	for _, degree := range []int{1, 2, 4} {
		for _, prune := range []bool{true, false} {
			c.ParallelDegree = degree
			c.DisableSegmentPrune = !prune
			before, err := c.TableScanStats("pfacts")
			if err != nil {
				return err
			}
			if _, err := s.Exec("BEGIN"); err != nil {
				return err
			}
			var shipped int64
			start := time.Now()
			for i := 0; i < iters; i++ {
				res, err := s.Exec(query)
				if err != nil {
					return err
				}
				shipped = res.RowsShipped
			}
			lat := time.Since(start) / iters
			if _, err := s.Exec("COMMIT"); err != nil {
				return err
			}
			after, err := c.TableScanStats("pfacts")
			if err != nil {
				return err
			}
			pruneLabel := "on"
			if !prune {
				pruneLabel = "off"
			}
			got := scanWant{
				(after.SegmentsScanned - before.SegmentsScanned) / iters,
				(after.SegmentsPruned - before.SegmentsPruned) / iters,
				(after.RowsScanned - before.RowsScanned) / iters,
			}
			if want := wants[prune]; bad == nil && (shipped != 32 || got != want) {
				bad = fmt.Errorf("parallel: degree %d prune %s shipped %d rows and scanned %+v, want 32 and %+v",
					degree, pruneLabel, shipped, got, want)
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d", degree),
				pruneLabel,
				lat.Round(time.Microsecond).String(),
				fmt.Sprintf("%d", shipped),
				fmt.Sprintf("%d", got.scanned),
				fmt.Sprintf("%d", got.pruned),
				fmt.Sprintf("%d", got.rows),
			})
		}
	}
	c.ParallelDegree = 0
	c.DisableSegmentPrune = false
	benchfmt.Table(w, "Parallel intra-query execution — 98k-row columnar scatter agg @4 shards, 3ms/hop (E13)",
		[]string{"degree", "prune", "latency", "rows shipped", "segs scanned", "segs pruned", "rows scanned"}, rows)
	return bad
}

// HA (E14) measures per-shard standby replication: a TPC-C-like driver runs
// against 4 shards, each paired with a standby, under async then sync
// commit-log shipping. Mid-run one primary is killed and its standby
// promoted while the driver keeps going. The table compares throughput and
// the worst observed replication lag per phase and mode. A run fails
// unless it lost no committed transaction: every order the driver saw
// commit is present after the failover, and the TPC-C invariants hold.
func HA(w io.Writer) error {
	var rows [][]string
	var notes []string
	for _, mode := range []repl.Mode{repl.ModeAsync, repl.ModeSync} {
		modeRows, note, err := haMode(mode)
		if err != nil {
			return err
		}
		rows, notes = append(rows, modeRows...), append(notes, note)
	}
	benchfmt.Table(w, "Per-shard standby replication under TPC-C-like load, failover mid-run (E14)",
		[]string{"mode", "phase", "txn/s", "committed", "aborted", "max lag"}, rows)
	for _, n := range notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintln(w)
	return nil
}

// haMode runs E14 under one shipping mode: its table rows and its failover
// note.
func haMode(mode repl.Mode) (rows [][]string, note string, err error) {
	const txnsPerPhase = 300
	c, err := cluster.New(cluster.Config{DataNodes: 4, Mode: cluster.ModeGTMLite})
	if err != nil {
		return nil, "", err
	}
	cfg := tpcc.DefaultConfig(8, 0.9)
	if err := tpcc.Load(c, cfg); err != nil {
		return nil, "", err
	}
	m := repl.NewManager(c, repl.Config{Mode: mode})
	defer m.Close()
	for _, p := range c.PrimaryIDs() {
		if _, err := m.AttachStandby(p); err != nil {
			return nil, "", err
		}
	}
	drv := tpcc.NewDriver(c, cfg, 1)

	worstLag := func() int64 {
		var worst int64
		for _, p := range c.PrimaryIDs() {
			if l := m.Lag(p); l > worst {
				worst = l
			}
		}
		return worst
	}
	var maxLag int64
	phase := func(name string, run func() error) error {
		pre := drv.Stats
		maxLag = 0
		start := time.Now()
		if err := run(); err != nil {
			return err
		}
		elapsed := time.Since(start).Seconds()
		committed := drv.Stats.Committed - pre.Committed
		rows = append(rows, []string{
			mode.String(),
			name,
			benchfmt.F(float64(committed) / elapsed),
			fmt.Sprintf("%d", committed),
			fmt.Sprintf("%d", drv.Stats.Aborted-pre.Aborted),
			fmt.Sprintf("%d", maxLag),
		})
		return nil
	}
	sampled := func(n int) func() error {
		return func() error {
			for i := 0; i < n; i++ {
				if err := drv.RunOne(); err != nil {
					return err
				}
				if l := worstLag(); l > maxLag {
					maxLag = l
				}
			}
			return nil
		}
	}

	if err := phase("steady", sampled(txnsPerPhase)); err != nil {
		return nil, "", err
	}

	// Kill a primary; its standby is promoted while the driver keeps
	// issuing transactions. Aborts against the dead shard during the
	// promotion window land in the aborted column.
	victim := 0
	var rep repl.FailoverReport
	var foErr error
	if err := phase("failover", func() error {
		c.SetDataNodeDown(victim, true)
		done := make(chan struct{})
		go func() {
			rep, foErr = m.Failover(victim)
			close(done)
		}()
		for {
			select {
			case <-done:
				return nil
			default:
				if err := drv.RunOne(); err != nil {
					<-done // the promotion ends before the manager closes
					return err
				}
				if l := worstLag(); l > maxLag {
					maxLag = l
				}
			}
		}
	}); err != nil {
		return nil, "", err
	}
	if foErr != nil {
		return nil, "", foErr
	}

	if err := phase("after", sampled(txnsPerPhase)); err != nil {
		return nil, "", err
	}

	if err := tpcc.CheckInvariants(c, cfg); err != nil {
		return nil, "", fmt.Errorf("ha: %s: after the failover: %w", mode, err)
	}
	res, err := c.NewSession().Exec("SELECT count(*) FROM orders")
	if err != nil {
		return nil, "", err
	}
	if got := res.Rows[0][0].Int(); got != drv.Stats.NewOrders {
		return nil, "", fmt.Errorf("ha: %s: lost transactions: %d orders stored, %d committed", mode, got, drv.Stats.NewOrders)
	}
	return rows, fmt.Sprintf(
		"%s: promoted dn%d -> dn%d in %s (%d buckets, %d in-doubt legs replayed, %d records shipped)",
		mode, rep.Primary, rep.Standby, rep.Elapsed.Round(time.Microsecond),
		rep.Buckets, rep.Replayed, m.RecordsShipped()), nil
}

// Network (E15) regenerates the transport-layer message accounting table:
// a TPC-C-like driver runs under the conventional all-through-GTM design
// and under GTM-lite at 100 % and 90 % single-shard mixes, and the
// fabric's per-message-type counters (reset after load) are normalized
// per committed transaction. The paper's GTM-lite argument shows up
// directly as wire traffic: single-shard transactions skip every GTM
// round trip, so GTM-lite's gtm column collapses toward zero with the
// single-shard fraction while the baseline pays the GTM on every
// transaction regardless of mix. The run fails unless, at both mixes,
// GTM-lite sends strictly fewer GTM messages (snapshot_req + gtm_round) and
// fewer messages in all per committed transaction than the baseline, and
// none at all at 100 % single-shard.
func Network(w io.Writer) error {
	const txns = 400
	shown := []transport.MsgType{
		transport.SnapshotReq, transport.GTMRound, transport.Write,
		transport.Prepare, transport.Commit, transport.Abort, transport.ScanFrag,
	}
	// gtm and total are per committed transaction, keyed by mode and mix.
	type cellKey struct {
		mode cluster.TxnMode
		ss   float64
	}
	gtm, total := map[cellKey]float64{}, map[cellKey]float64{}
	var rows [][]string
	for _, mode := range []cluster.TxnMode{cluster.ModeBaseline, cluster.ModeGTMLite} {
		for _, ss := range []float64{1.0, 0.9} {
			c, err := cluster.New(cluster.Config{DataNodes: 4, Mode: mode})
			if err != nil {
				return err
			}
			cfg := tpcc.DefaultConfig(8, ss)
			if err := tpcc.Load(c, cfg); err != nil {
				return err
			}
			fab := c.Fabric()
			fab.ResetCounters() // exclude the bulk load's traffic
			d := tpcc.NewDriver(c, cfg, 1)
			if err := d.Run(txns); err != nil {
				return err
			}
			committed := float64(d.Stats.Committed)
			if committed == 0 {
				return fmt.Errorf("net: %s ss=%.0f%% committed nothing", mode, ss*100)
			}
			st := fab.Stats()
			perTxn := func(mt transport.MsgType) float64 { return float64(st.Get(mt).Count) / committed }
			k := cellKey{mode, ss}
			gtm[k] = perTxn(transport.SnapshotReq) + perTxn(transport.GTMRound)
			total[k] = float64(st.Total()) / committed

			row := []string{mode.String(), fmt.Sprintf("%.0f%%", ss*100)}
			for _, mt := range shown {
				row = append(row, benchfmt.F(perTxn(mt)))
			}
			row = append(row, benchfmt.F(gtm[k]), benchfmt.F(total[k]))
			rows = append(rows, row)
		}
	}
	header := []string{"mode", "single-shard"}
	for _, mt := range shown {
		header = append(header, mt.String())
	}
	header = append(header, "gtm msgs/txn", "total msgs/txn")
	benchfmt.Table(w, "Messages per committed transaction by type — TPC-C-like @4 shards (E15)", header, rows)

	for _, ss := range []float64{1.0, 0.9} {
		base, lite := cellKey{cluster.ModeBaseline, ss}, cellKey{cluster.ModeGTMLite, ss}
		if gtm[base] <= 0 || gtm[lite] >= gtm[base] {
			return fmt.Errorf("net: ss=%.0f%%: gtm-lite %.3f GTM msgs/txn, not strictly fewer than baseline %.3f",
				ss*100, gtm[lite], gtm[base])
		}
		if total[lite] >= total[base] {
			return fmt.Errorf("net: ss=%.0f%%: gtm-lite %.3f msgs/txn, not fewer than baseline %.3f",
				ss*100, total[lite], total[base])
		}
	}
	if g := gtm[cellKey{cluster.ModeGTMLite, 1.0}]; g != 0 {
		return fmt.Errorf("net: pure single-shard gtm-lite still sent %.3f GTM msgs/txn", g)
	}
	return nil
}

// GeoRepl measures the quorum-size / geo-latency trade-off (E16): every
// shard gets three standbys — one LAN, two behind a modeled WAN link —
// and a sync-mode insert workload runs once per (quorum K, WAN latency)
// cell. K=1 acks at the LAN standby and hides the WAN entirely; K=2 waits
// for one WAN round trip; K=3 for the slowest replica. The fabric's
// per-link counters show the batched ReplShip traffic on the geo links.
// Each cell finishes with a drain, and the run fails unless every replica's
// digest equals its primary's (zero committed-record loss) and, behind a
// 1 ms WAN, a commit waiting for K >= 2 acks averages at least the WAN's
// 1 ms — a lower bound made of sleeps, so it holds on any machine.
func GeoRepl(w io.Writer) error {
	wans := []time.Duration{0, 200 * time.Microsecond, time.Millisecond}
	var rows [][]string
	var note string
	for _, wan := range wans {
		for k := 1; k <= 3; k++ {
			row, cellNote, err := geoCell(wan, k, k == 3 && wan == wans[len(wans)-1])
			if err != nil {
				return err
			}
			rows = append(rows, row)
			if cellNote != "" {
				note = cellNote
			}
		}
	}
	benchfmt.Table(w, "Geo-replication: sync quorum K vs commit latency, 3 standbys/shard, 2 behind the WAN (E16)",
		[]string{"quorum", "wan", "commits", "avg commit us", "max commit us", "ship batches"}, rows)
	fmt.Fprintln(w, note)
	fmt.Fprintln(w)
	return nil
}

// geoCell runs one (WAN latency, quorum K) cell of E16: its table row and,
// for the last cell, the per-link accounting note.
func geoCell(wan time.Duration, k int, lastCell bool) (row []string, note string, err error) {
	const commitsPerCell = 150
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		return nil, "", err
	}
	s := c.NewSession()
	if _, err := s.Exec("CREATE TABLE geo (id BIGINT, v BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)"); err != nil {
		return nil, "", err
	}
	c.Fabric().Record(true)
	m := repl.NewManager(c, repl.Config{Mode: repl.ModeSync, QuorumAcks: k, SyncTimeout: 250 * time.Millisecond})
	defer m.Close()
	for _, p := range c.PrimaryIDs() {
		for i, link := range []transport.Latency{{}, {Base: wan, Jitter: wan / 4}, {Base: wan, Jitter: wan / 4}} {
			if _, err := m.AttachReplica(repl.ReplicaSpec{Upstream: p, Link: link}); err != nil {
				return nil, "", fmt.Errorf("georepl: standby %d of dn%d: %w", i, p, err)
			}
		}
	}

	var total, worst time.Duration
	for i := 0; i < commitsPerCell; i++ {
		start := time.Now()
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO geo VALUES (%d, %d)", i, i)); err != nil {
			return nil, "", err
		}
		el := time.Since(start)
		total += el
		if el > worst {
			worst = el
		}
	}

	// Drain every replica, then digest-verify the whole fleet.
	deadline := time.Now().Add(10 * time.Second)
	for _, p := range c.PrimaryIDs() {
		for m.Lag(p) > 0 {
			if time.Now().After(deadline) {
				return nil, "", fmt.Errorf("georepl: K=%d wan=%v never drained (lag %d)", k, wan, m.Lag(p))
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	st := m.Status()
	var batches int64
	for _, rs := range st.Replicas {
		batches += rs.Batches
		want, err := c.PartitionDigest("geo", rs.Primary, rs.Primary)
		if err != nil {
			return nil, "", err
		}
		got, err := c.PartitionDigest("geo", rs.Node, rs.Primary)
		if err != nil {
			return nil, "", err
		}
		if want != got {
			return nil, "", fmt.Errorf("georepl: K=%d wan=%v: replica dn%d diverged from primary dn%d", k, wan, rs.Node, rs.Primary)
		}
	}
	avg := total / commitsPerCell
	if wan == time.Millisecond && k >= 2 && avg < wan {
		return nil, "", fmt.Errorf("georepl: K=%d commits averaged %v behind a %v WAN — the quorum did not wait for it", k, avg, wan)
	}
	row = []string{
		fmt.Sprintf("%d/3", k),
		wan.String(),
		fmt.Sprintf("%d", commitsPerCell),
		benchfmt.F(float64(total.Microseconds()) / float64(commitsPerCell)),
		benchfmt.F(float64(worst.Microseconds())),
		fmt.Sprintf("%d", batches),
	}
	if lastCell {
		links := map[[2]transport.Endpoint]bool{}
		var bytes int64
		for _, e := range c.Fabric().Recorded() {
			for _, msg := range e.Msgs {
				links[[2]transport.Endpoint{msg.From, msg.To}] = true
				bytes += int64(msg.Bytes)
			}
		}
		note = fmt.Sprintf("per-link fabric accounting (K=3, wan=%v cell): %d tracked links, %d payload bytes delivered, %d records shipped",
			wan, len(links), bytes, m.RecordsShipped())
	}
	return row, note, nil
}

// FrontDoor drives the full client path — driver pool, wire protocol over
// the fabric, CN session objects, SLA admission gate — at user scale
// (E17): `sessions` concurrent driver sessions split into high/normal/low
// priority classes, first at light load and then all at once. The
// admission queue is sized so it overflows under the full burst: low and
// normal waiters are evicted or rejected (the driver retries with jittered
// backoff, then gives up), while the high class — which eviction can never
// touch and which always finds someone below it to displace — keeps its
// p99 bounded. The table reports offered load, per-class p99 and admitted
// throughput, and the shed rate; the experiment fails if any high-priority
// statement was shed or low-priority latency beats high under overload.
func FrontDoor(w io.Writer, sessions int) error {
	if sessions < 20 {
		sessions = 20
	}
	db, err := core.Open(core.Options{DataNodes: 4, HopLatency: 100 * time.Microsecond})
	if err != nil {
		return err
	}
	defer db.Close()
	srv, err := db.NewServer(server.Config{
		SLA: autonomous.SLA{TargetP95: 100 * time.Millisecond},
		Workload: autonomous.WorkloadConfig{
			InitialConcurrency: 32,
			// The floor keeps the gate from collapsing when scheduler
			// noise at 10k goroutines inflates the measured p95.
			MinConcurrency: 16,
			MaxConcurrency: 64,
			Window:         64,
			// The queue holds a quarter of the fleet: larger than the high
			// class (20%), far smaller than the full burst.
			QueueLimit: sessions / 4,
		},
	})
	if err != nil {
		return err
	}

	boot, err := driver.Open(driver.Fabric(srv), driver.Options{PoolSize: 1})
	if err != nil {
		return err
	}
	if _, err := boot.Exec("CREATE TABLE accounts (id BIGINT, balance BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)"); err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		if _, err := boot.Exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, 100)", i)); err != nil {
			return err
		}
	}
	boot.Close()

	classes := []struct {
		pri  autonomous.Priority
		frac float64
	}{
		{autonomous.PriorityHigh, 0.2},
		{autonomous.PriorityNormal, 0.3},
		{autonomous.PriorityLow, 0.5},
	}
	const stmtsPerSession = 3
	// highSLABound is the experiment's pass/fail line for the protected
	// class's tail latency under full overload.
	const highSLABound = 2 * time.Second

	type cell struct {
		sessions int
		ok       int64
		shed     int64
		failed   int64
		p99      time.Duration
		rate     float64
	}
	runPhase := func(total int) (map[autonomous.Priority]*cell, error) {
		cells := map[autonomous.Priority]*cell{}
		var mu sync.Mutex
		lats := map[autonomous.Priority][]float64{}
		var wg sync.WaitGroup
		var firstErr error
		start := time.Now()
		for _, cl := range classes {
			n := int(float64(total) * cl.frac)
			if n < 1 {
				n = 1
			}
			cells[cl.pri] = &cell{sessions: n}
			pool, err := driver.Open(driver.Fabric(srv), driver.Options{
				PoolSize:    n,
				Priority:    cl.pri,
				StmtTimeout: 10 * time.Second,
				RetryMax:    4,
				RetryBase:   200 * time.Microsecond,
				RetryCap:    5 * time.Millisecond,
				Seed:        int64(n) + int64(cl.pri),
			})
			if err != nil {
				return nil, err
			}
			defer pool.Close()
			c := cells[cl.pri]
			pri := cl.pri
			for s := 0; s < n; s++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					for k := 0; k < stmtsPerSession; k++ {
						t0 := time.Now()
						_, err := pool.Exec("SELECT sum(balance) FROM accounts")
						lat := time.Since(t0)
						mu.Lock()
						switch {
						case err == nil:
							c.ok++
							lats[pri] = append(lats[pri], float64(lat))
						case errors.Is(err, driver.ErrShed):
							c.shed++
						default:
							c.failed++
							if firstErr == nil {
								firstErr = err
							}
						}
						mu.Unlock()
					}
				}(s)
			}
		}
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		for pri, c := range cells {
			c.p99 = time.Duration(autonomous.Percentile(lats[pri], 0.99))
			c.rate = float64(c.ok) / elapsed
		}
		if firstErr != nil {
			return cells, fmt.Errorf("frontdoor: statement failed: %w", firstErr)
		}
		return cells, nil
	}

	phases := []struct {
		name  string
		total int
	}{
		{"light", sessions / 10},
		{"overload", sessions},
	}
	var rows [][]string
	var overload map[autonomous.Priority]*cell
	for _, ph := range phases {
		cells, err := runPhase(ph.total)
		if err != nil {
			return err
		}
		if ph.name == "overload" {
			overload = cells
		}
		for _, cl := range classes {
			c := cells[cl.pri]
			offered := int64(c.sessions * stmtsPerSession)
			rows = append(rows, []string{
				ph.name,
				fmt.Sprintf("%d", c.sessions),
				cl.pri.String(),
				fmt.Sprintf("%d", offered),
				benchfmt.F(c.rate),
				fmt.Sprintf("%.2f", float64(c.p99.Microseconds())/1000),
				benchfmt.Pct(float64(c.shed) / float64(offered)),
			})
		}
	}
	benchfmt.Table(w, "Front door at user scale — SLA admission by priority class (E17)",
		[]string{"phase", "sessions", "class", "offered", "admitted/s", "p99 ms", "shed"}, rows)

	st := srv.Stats()
	fab := db.Cluster().Fabric().Stats()
	fmt.Fprintf(w, "server: %d sessions opened, %d statements, stmt-cache %d hits / %d misses; fabric client traffic: %d req (%d B), %d resp (%d B)\n\n",
		st.SessionsOpened, st.Statements, st.CacheHits, st.CacheMisses,
		fab[transport.ClientReq].Count, fab[transport.ClientReq].Bytes,
		fab[transport.ClientResp].Count, fab[transport.ClientResp].Bytes)

	// The SLA story the table must back up: the high class is never shed
	// or failed — every offered high-priority statement executed, with p99
	// inside the interactive bound — while overload is real (the gate
	// sacrificed low-priority statements to keep that true). Low's
	// apparent p99 is survivorship: only statements admitted before the
	// queue filled complete at all.
	hi := overload[autonomous.PriorityHigh]
	if shed := st.Workload.Class(autonomous.PriorityHigh).Shed; shed != 0 {
		return fmt.Errorf("frontdoor: %d high-priority statements shed (SLA violated)", shed)
	}
	if hi.shed != 0 || hi.failed != 0 {
		return fmt.Errorf("frontdoor: high-priority statements shed=%d failed=%d (SLA violated)", hi.shed, hi.failed)
	}
	if got, want := hi.ok, int64(hi.sessions*stmtsPerSession); got != want {
		return fmt.Errorf("frontdoor: only %d/%d high-priority statements served", got, want)
	}
	if hi.p99 > highSLABound {
		return fmt.Errorf("frontdoor: high-priority p99 %v exceeds the %v bound under overload", hi.p99, highSLABound)
	}
	if overload[autonomous.PriorityLow].shed == 0 {
		return fmt.Errorf("frontdoor: overload shed no low-priority statements — not actually overloaded")
	}
	return nil
}

// rowsFingerprint renders a result for identity checks: the row sequence
// when the query ordered it, the sorted rows otherwise (a join defines no
// output order, and where it runs legitimately changes it).
func rowsFingerprint(rows []types.Row, ordered bool) string {
	lines := make([]string, len(rows))
	for i, r := range rows {
		lines[i] = r.String()
	}
	if !ordered {
		sort.Strings(lines)
	}
	return strings.Join(lines, "\n")
}

// NDP regenerates E18 (near-data processing): scan_frag traffic and latency
// for a selective filter+TopN scatter query and a skewed hash join as the
// pushdown levels stack — off (row pull-up under a coordinator Filter),
// exact DN-side filtering, projection shipping, per-fragment bounded TopN,
// and a sideways bloom filter built from the join's small side. The ladder
// runs with distributed joins disabled so the join column measures the CN
// hash join the bloom filter feeds; one contrast line reports the DN-side
// join the planner picks on its own. Every level and every parallel degree
// must return identical results; the run fails if full pushdown does not
// cut scan_frag bytes by at least 10x on the TopN query, or if the bloom
// semi-join does not ship strictly fewer bytes than the pull-up join.
func NDP(w io.Writer) error {
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		return err
	}
	defer db.Close()
	s := db.Session()
	// Eight columns so projection shipping has something to cut: the TopN
	// query touches two of them, the join three.
	if _, err := s.Exec("CREATE TABLE nfacts (k BIGINT, grp BIGINT, v BIGINT, p1 BIGINT, p2 BIGINT, p3 BIGINT, p4 BIGINT, p5 BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN"); err != nil {
		return err
	}
	const total = 4 * 8192 // ~one sealed segment per shard
	if _, err := s.Exec("BEGIN"); err != nil {
		return err
	}
	const batch = 512
	for lo := 0; lo < total; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO nfacts VALUES ")
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d, %d, %d, %d)", i, i%500, i, i, i, i, i, i)
		}
		if _, err := s.Exec(sb.String()); err != nil {
			return err
		}
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		return err
	}
	// Small dimension side for the skewed join: 10 of the 500 grp values
	// match, so ~98% of fact rows can never find a partner — exactly the
	// shape a sideways bloom filter exists for. Row store, so the join also
	// exercises the NDP row path.
	if _, err := s.Exec("CREATE TABLE ndims (id BIGINT, tag BIGINT) DISTRIBUTE BY HASH(id)"); err != nil {
		return err
	}
	{
		var sb strings.Builder
		sb.WriteString("INSERT INTO ndims VALUES ")
		for i := 0; i < 10; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i*100)
		}
		if _, err := s.Exec(sb.String()); err != nil {
			return err
		}
	}

	c := db.Cluster()
	// Statistics, as E20 and the benchmark have: without them the contrast
	// join cannot tell the 10-row dimension from the fact table.
	for _, tb := range []string{"nfacts", "ndims"} {
		if err := c.Analyze(tb); err != nil {
			return err
		}
	}
	fab := c.Fabric()
	fab.SetBaseLatency(500 * time.Microsecond)
	fab.SetBandwidth(64e6) // byte-proportional hop cost so shipped bytes show up in latency
	defer fab.SetBaseLatency(0)
	defer fab.SetBandwidth(0)

	const scanQ = "SELECT k, v FROM nfacts WHERE v >= 31744 ORDER BY v DESC LIMIT 10"
	const joinQ = "SELECT f.k, f.v, d.tag FROM nfacts f, ndims d WHERE f.grp = d.id"

	// ndpRun is one measured query: per-query scan_frag bytes (request +
	// response legs) and bytes over every message type (a DN-side join also
	// moves rows between nodes), the rows shipped to the CN, the mean
	// latency, and the result's fingerprint.
	type ndpRun struct {
		scanFrag, fabric, shipped int64
		lat                       time.Duration
		key                       string
	}
	measure := func(query string, iters int64) (ndpRun, error) {
		var run ndpRun
		if _, err := s.Exec("BEGIN"); err != nil {
			return run, err
		}
		before := fab.Stats()
		start := time.Now()
		for i := int64(0); i < iters; i++ {
			res, err := s.Exec(query)
			if err != nil {
				return run, err
			}
			run.shipped = res.RowsShipped
			run.key = rowsFingerprint(res.Rows, strings.Contains(query, "ORDER BY"))
		}
		run.lat = time.Since(start) / time.Duration(iters)
		delta := fab.Stats().Sub(before)
		run.scanFrag = delta.Get(transport.ScanFrag).Bytes / iters
		run.fabric = delta.TotalBytes() / iters
		_, err := s.Exec("COMMIT")
		return run, err
	}
	// check measures both queries (the mean of iters runs each) and
	// compares their results with the baseline.
	var scanKey, joinKey string
	check := func(what string, iters int64) (scan, join ndpRun, err error) {
		if scan, err = measure(scanQ, iters); err != nil {
			return
		}
		if join, err = measure(joinQ, iters); err != nil {
			return
		}
		if scanKey == "" {
			scanKey, joinKey = scan.key, join.key
		} else if scan.key != scanKey || join.key != joinKey {
			err = fmt.Errorf("ndp: results diverge %s from the pushdown-off CN-join baseline", what)
		}
		return
	}

	// The ladder runs with distributed joins off, so the join column
	// measures the CN hash join whose build side feeds the bloom filter.
	cnJoin := plan.DistJoinPolicy{Disable: true}
	c.JoinPolicy = cnJoin
	defer func() { c.JoinPolicy, c.Pushdown, c.ParallelDegree = plan.DistJoinPolicy{}, plan.PushdownBloom, 0 }()
	scanBytes := map[plan.PushdownLevel]int64{}
	joinBytes := map[plan.PushdownLevel]int64{}
	var rows [][]string
	for _, lv := range plan.PushdownLadder {
		c.Pushdown = lv
		scan, join, err := check(fmt.Sprintf("at level %q", lv), 3)
		if err != nil {
			return err
		}
		scanBytes[lv] = scan.scanFrag
		joinBytes[lv] = join.scanFrag
		rows = append(rows, []string{
			lv.String(),
			fmt.Sprintf("%d", scan.scanFrag),
			fmt.Sprintf("%d", scan.shipped),
			scan.lat.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", join.scanFrag),
			fmt.Sprintf("%d", join.shipped),
			join.lat.Round(time.Microsecond).String(),
		})
	}

	// Contrast: left to itself the planner runs this join DN-side.
	c.JoinPolicy = plan.DistJoinPolicy{}
	_, dnJoin, err := check("with a DN-side join", 3)
	if err != nil {
		return err
	}

	// Full pushdown must stay identical at every parallel degree, wherever
	// the join runs: the per-fragment bounded heaps ship their survivors in
	// scan order, so the CN merge cannot observe the degree.
	for _, degree := range []int{1, 2, 4} {
		c.ParallelDegree = degree
		for _, pol := range []plan.DistJoinPolicy{cnJoin, {}} {
			c.JoinPolicy = pol
			if _, _, err := check(fmt.Sprintf("at parallel degree %d (join policy %+v)", degree, pol), 1); err != nil {
				return err
			}
		}
	}

	benchfmt.Table(w, "Near-data processing — pushdown levels, 32k-row x 8-col scatter @4 shards, join at the CN (E18)",
		[]string{"pushdown", "scan+topn B/q", "rows to CN", "latency", "join B/q", "rows to CN", "latency"}, rows)
	fmt.Fprintf(w, "contrast: the DN-side join the planner picks on its own ships %d scan_frag B/q (%d B/q over all message types) in %v\n",
		dnJoin.scanFrag, dnJoin.fabric, dnJoin.lat.Round(time.Microsecond))

	if off, full := scanBytes[plan.PushdownOff], scanBytes[plan.PushdownTopN]; full <= 0 || off < 10*full {
		return fmt.Errorf("ndp: scan_frag bytes off=%d full=%d — wanted >= 10x reduction", off, full)
	}
	if pull, bloom := joinBytes[plan.PushdownTopN], joinBytes[plan.PushdownBloom]; bloom >= pull {
		return fmt.Errorf("ndp: bloom join shipped %d B vs pull-up %d B — wanted strictly fewer", bloom, pull)
	}
	return nil
}

// HTAP (E19) validates the columnar analytical replicas (§II-III,
// GaussDB/Taurus) on the live engine in three phases: (A) identity — every
// analytical answer from the replicas matches the primary row path at
// every freshness setting and policy; (B) OLTP isolation — TPC-C
// throughput with concurrent analytics on the replicas vs the same
// analytics competing on the primaries; (C) the freshness-bound vs
// analytical-throughput trade-off under sustained write load. Phase B is
// judged by counts, not by its printed throughput: every configuration
// keeps the TPC-C invariants, and with replicas on, the replicas serve
// every analytical statement, none degraded to a primary.
func HTAP(w io.Writer) error {
	const txns = 300
	analyticalQs := []string{
		"SELECT count(*), sum(s_qty) FROM stock",
		"SELECT o_w_id, count(*), sum(o_lines) FROM orders GROUP BY o_w_id ORDER BY o_w_id",
		"SELECT sum(c_balance), sum(c_payments), count(*) FROM customer",
		"SELECT d_w_id, sum(d_ytd) FROM district GROUP BY d_w_id ORDER BY d_w_id",
	}
	cfg := tpcc.DefaultConfig(4, 0.9)
	if err := htapIdentity(cfg, analyticalQs, txns/2); err != nil {
		return err
	}
	var rowsB [][]string
	for _, pb := range []htapIsolationRun{
		{"tpcc alone", false, false},
		{"analytics on primary", false, true},
		{"analytics on replicas", true, true},
	} {
		row, err := htapIsolation(cfg, analyticalQs, pb, txns)
		if err != nil {
			return err
		}
		rowsB = append(rowsB, row)
	}
	benchfmt.Table(w, "HTAP — TPC-C with concurrent analytics, primary vs columnar replicas (E19)",
		[]string{"configuration", "committed", "txn/s", "analytical q", "offloaded"}, rowsB)

	// --- Phase C: freshness bound vs analytical throughput ---------------
	c, err := cluster.New(cluster.Config{DataNodes: 4})
	if err != nil {
		return err
	}
	if err := tpcc.Load(c, cfg); err != nil {
		return err
	}
	m, err := htap.Enable(c, htap.Config{BlockTimeout: 250 * time.Millisecond})
	if err != nil {
		return err
	}
	defer m.Close()

	stopWrites := make(chan struct{})
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		wd := tpcc.NewDriver(c, cfg, 2)
		for {
			select {
			case <-stopWrites:
				return
			default:
			}
			_ = wd.RunOne()
		}
	}()

	sweep := []struct {
		bound  int64
		policy htap.Policy
	}{
		{0, htap.PolicyBlock},
		{0, htap.PolicyDegrade},
		{64, htap.PolicyBlock},
		{1024, htap.PolicyBlock},
		{1 << 20, htap.PolicyBlock},
	}
	var rowsC [][]string
	sess := c.NewSession()
	const probes = 40
	for _, set := range sweep {
		m.SetFreshnessBound(set.bound)
		m.SetPolicy(set.policy)
		before := m.Status()
		start := time.Now()
		for i := 0; i < probes; i++ {
			if _, err := sess.Exec(analyticalQs[i%len(analyticalQs)]); err != nil {
				close(stopWrites)
				wwg.Wait()
				return err
			}
		}
		elapsed := time.Since(start)
		after := m.Status()
		rowsC = append(rowsC, []string{
			fmt.Sprintf("%d", set.bound),
			set.policy.String(),
			benchfmt.F(float64(probes) / elapsed.Seconds()),
			fmt.Sprintf("%d", after.QueriesOffloaded-before.QueriesOffloaded),
			fmt.Sprintf("%d", after.QueriesDegraded-before.QueriesDegraded),
			fmt.Sprintf("%d", after.MaxLagRecords),
		})
	}
	close(stopWrites)
	wwg.Wait()
	benchfmt.Table(w, "HTAP — freshness bound vs analytical throughput under write load (E19)",
		[]string{"bound (recs)", "policy", "analytical q/s", "offloaded", "degraded", "lag"}, rowsC)

	if err := m.WaitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	if err := tpcc.CheckInvariants(c, cfg); err != nil {
		return fmt.Errorf("htap: invariants after phase C: %w", err)
	}
	return m.Err()
}

// htapIdentity is E19's phase A: after txns TPC-C transactions, every
// analytical answer from the replicas matches the primary row path at every
// freshness setting and policy.
func htapIdentity(cfg tpcc.Config, qs []string, txns int) error {
	c, err := cluster.New(cluster.Config{DataNodes: 4})
	if err != nil {
		return err
	}
	if err := tpcc.Load(c, cfg); err != nil {
		return err
	}
	m, err := htap.Enable(c, htap.Config{})
	if err != nil {
		return err
	}
	defer m.Close()
	d := tpcc.NewDriver(c, cfg, 0)
	if err := d.Run(txns); err != nil {
		return err
	}
	if err := m.WaitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	settings := []struct {
		bound  int64
		policy htap.Policy
	}{
		{0, htap.PolicyBlock},
		{0, htap.PolicyDegrade},
		{256, htap.PolicyBlock},
		{1 << 20, htap.PolicyBlock},
	}
	s := c.NewSession()
	for _, set := range settings {
		m.SetFreshnessBound(set.bound)
		m.SetPolicy(set.policy)
		for _, q := range qs {
			// The primary's answer: read routing detached for one statement
			// (the tap is a separate subscription, so the replicas keep
			// applying).
			c.SetAnalyticalReads(nil)
			want, err := s.Exec(q)
			c.SetAnalyticalReads(m)
			if err != nil {
				return err
			}
			got, err := s.Exec(q)
			if err != nil {
				return err
			}
			if fmt.Sprintf("%v", got.Rows) != fmt.Sprintf("%v", want.Rows) {
				return fmt.Errorf("htap: replica answer diverges from primary at bound=%d policy=%s for %q",
					set.bound, set.policy, q)
			}
		}
	}
	if m.Status().QueriesOffloaded == 0 {
		return errors.New("htap: no statement offloaded to the replicas in phase A")
	}
	return nil
}

// htapIsolationRun is one configuration of E19's phase B.
type htapIsolationRun struct {
	name      string
	enable    bool // HTAP replicas on
	analytics bool // concurrent analytical scanner on
}

// htapIsolation is one configuration of E19's phase B — txns TPC-C
// transactions beside the analytical scanner, on the primaries or on the
// replicas — and its table row.
func htapIsolation(cfg tpcc.Config, qs []string, pb htapIsolationRun, txns int) ([]string, error) {
	c, err := cluster.New(cluster.Config{DataNodes: 4})
	if err != nil {
		return nil, err
	}
	if err := tpcc.Load(c, cfg); err != nil {
		return nil, err
	}
	var m *htap.Manager
	if pb.enable {
		if m, err = htap.Enable(c, htap.Config{MaxLagRecords: 1 << 20}); err != nil {
			return nil, err
		}
		defer m.Close()
	}
	var before htap.Status
	if m != nil {
		before = m.Status()
	}
	stopScan := make(chan struct{})
	var scanned int64
	var wg sync.WaitGroup
	if pb.analytics {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := c.NewSession()
			for i := 0; ; i++ {
				select {
				case <-stopScan:
					return
				default:
				}
				if _, err := sess.Exec(qs[i%len(qs)]); err == nil {
					scanned++
				}
			}
		}()
	}
	d := tpcc.NewDriver(c, cfg, 1)
	start := time.Now()
	err = d.Run(txns)
	elapsed := time.Since(start)
	close(stopScan)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	// The counters move before the invariant queries, which the
	// replicas also serve.
	var offloaded int64
	if m != nil {
		after := m.Status()
		offloaded = after.QueriesOffloaded - before.QueriesOffloaded
		if degraded := after.QueriesDegraded - before.QueriesDegraded; offloaded < scanned || degraded != 0 {
			return nil, fmt.Errorf("htap: %s: %d of %d analytical statements offloaded, %d degraded — wanted all on the replicas",
				pb.name, offloaded, scanned, degraded)
		}
		// The replicas run a megarecord behind at most: let them catch
		// up, or the invariant sums (scatter aggregates, served by them)
		// each read their own stale cut.
		if err := m.WaitCaughtUp(10 * time.Second); err != nil {
			return nil, err
		}
	}
	if err := tpcc.CheckInvariants(c, cfg); err != nil {
		return nil, fmt.Errorf("htap: %s: %w", pb.name, err)
	}
	if m != nil {
		st := m.Status()
		// Zero-divergence check: every replica partition digest equals
		// its primary's.
		for _, rs := range st.Replicas {
			for _, tbl := range c.DistributedTableNames() {
				want, err := c.PartitionDigest(tbl, rs.DN, rs.DN)
				if err != nil {
					return nil, err
				}
				got, err := m.ReplicaDigest(tbl, rs.DN)
				if err != nil {
					return nil, err
				}
				if got != want {
					return nil, fmt.Errorf("htap: %s replica on dn%d diverged from primary", tbl, rs.DN)
				}
			}
		}
	}
	return []string{
		pb.name,
		fmt.Sprintf("%d", d.Stats.Committed),
		benchfmt.F(float64(d.Stats.Committed) / elapsed.Seconds()),
		fmt.Sprintf("%d", scanned),
		fmt.Sprintf("%d", offloaded),
	}, nil
}

// Joins (E20) validates the distributed join paths (§II-A MPP joins) on a
// 4-shard star schema: per-strategy fabric bytes and latency, result
// identity across every strategy and parallel degree, and the
// statistics-free planner's microsecond budget on a 6-table join. Two
// reductions are enforced, not just reported: the co-located join and the
// shuffle join must each move strictly fewer fabric bytes than pulling
// both inputs to the coordinator.
func Joins(w io.Writer) error {
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		return err
	}
	defer db.Close()
	s := db.Session()
	c := db.Cluster()

	// Star schema: two fact tables sharing a distribution key (the
	// co-located pair) and a dimension distributed on its own key. The
	// filter on jfact keeps join results far smaller than the inputs, so
	// where the join runs dominates the byte count.
	if _, err := s.Exec("CREATE TABLE jfact (k BIGINT, d BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN"); err != nil {
		return err
	}
	if _, err := s.Exec("CREATE TABLE jfact2 (k BIGINT, w BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN"); err != nil {
		return err
	}
	if _, err := s.Exec("CREATE TABLE jdim (id BIGINT, tag BIGINT) DISTRIBUTE BY HASH(id)"); err != nil {
		return err
	}
	const total = 8192
	if _, err := s.Exec("BEGIN"); err != nil {
		return err
	}
	const batch = 512
	for lo := 0; lo < total; lo += batch {
		var f1, f2 strings.Builder
		f1.WriteString("INSERT INTO jfact VALUES ")
		f2.WriteString("INSERT INTO jfact2 VALUES ")
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				f1.WriteByte(',')
				f2.WriteByte(',')
			}
			fmt.Fprintf(&f1, "(%d, %d, %d)", i, i%64, i)
			fmt.Fprintf(&f2, "(%d, %d)", i, i*2)
		}
		if _, err := s.Exec(f1.String()); err != nil {
			return err
		}
		if _, err := s.Exec(f2.String()); err != nil {
			return err
		}
	}
	if _, err := s.Exec("COMMIT"); err != nil {
		return err
	}
	{
		var sb strings.Builder
		sb.WriteString("INSERT INTO jdim VALUES ")
		for i := 0; i < 64; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i*10)
		}
		if _, err := s.Exec(sb.String()); err != nil {
			return err
		}
	}
	for _, tb := range []string{"jfact", "jfact2", "jdim"} {
		if err := c.Analyze(tb); err != nil {
			return err
		}
	}

	fab := c.Fabric()
	fab.SetBaseLatency(500 * time.Microsecond)
	fab.SetBandwidth(64e6)
	defer fab.SetBaseLatency(0)
	defer fab.SetBandwidth(0)

	// alignedQ joins on the shared distribution key (the co-located
	// shape). skewQ joins a non-distribution column against the small
	// dimension (the broadcast shape; the CN fallback's bloom semi-join
	// also does well here, which is the honest comparison). shufQ joins
	// two large tables on non-aligned keys. The planner builds on the
	// filtered jfact, so the CN fallback's bloom filter prunes jfact2 too;
	// what a repartitioning join must beat is hauling both inputs to the
	// coordinator, which is the CN fallback one level below bloom.
	const alignedQ = "SELECT f.k, f.v, g.w FROM jfact f, jfact2 g WHERE f.k = g.k AND f.v < 400"
	const skewQ = "SELECT f.v, d.tag FROM jfact f, jdim d WHERE f.d = d.id AND f.v < 400"
	const shufQ = "SELECT f.v, g.w FROM jfact f, jfact2 g WHERE f.d = g.w AND f.v < 400"

	// measure runs one query and returns total fabric bytes, the
	// shuffle/broadcast components, mean latency, and a result digest
	// (sorted — join output order is undefined across strategies).
	measure := func(query string) (bytes, shufB, bcastB int64, lat time.Duration, key string, err error) {
		const iters = 3
		if _, err = s.Exec("BEGIN"); err != nil {
			return
		}
		before := fab.Stats()
		start := time.Now()
		var res *core.Result
		for i := 0; i < iters; i++ {
			if res, err = s.Exec(query); err != nil {
				return
			}
		}
		lat = time.Since(start) / iters
		d := fab.Stats().Sub(before)
		if _, err = s.Exec("COMMIT"); err != nil {
			return
		}
		bytes = d.TotalBytes() / iters
		shufB = d.Get(transport.ShufflePart).Bytes / iters
		bcastB = d.Get(transport.BcastBuild).Bytes / iters
		key = rowsFingerprint(res.Rows, false)
		return
	}

	policies := []struct {
		name string
		pol  plan.DistJoinPolicy
		lv   plan.PushdownLevel
	}{
		{"cn-fallback", plan.DistJoinPolicy{Disable: true}, plan.PushdownBloom},
		{"cn-no-bloom", plan.DistJoinPolicy{Disable: true}, plan.PushdownTopN}, // both inputs hauled whole
		{"auto", plan.DistJoinPolicy{}, plan.PushdownBloom},
		{"colocated", plan.DistJoinPolicy{Force: plan.DistColocated}, plan.PushdownBloom},
		{"broadcast", plan.DistJoinPolicy{Force: plan.DistBroadcast}, plan.PushdownBloom},
		{"shuffle", plan.DistJoinPolicy{Force: plan.DistShuffle}, plan.PushdownBloom},
	}
	type cell struct{ bytes, shufB, bcastB int64 }
	queries := []struct {
		name string
		sql  string
	}{{"aligned", alignedQ}, {"smalldim", skewQ}, {"repart", shufQ}}
	cells := map[string]map[string]cell{}
	keys := map[string]string{}
	var rows [][]string
	for _, p := range policies {
		c.JoinPolicy, c.Pushdown = p.pol, p.lv
		cells[p.name] = map[string]cell{}
		line := []string{p.name}
		var shufB, bcastB int64
		for _, q := range queries {
			b, sB, cB, lat, key, err := measure(q.sql)
			if err != nil {
				return fmt.Errorf("joins: %s %s: %w", p.name, q.name, err)
			}
			if ref, ok := keys[q.name]; !ok {
				keys[q.name] = key
			} else if key != ref {
				return fmt.Errorf("joins: %s results diverge under policy %q from cn-fallback", q.name, p.name)
			}
			cells[p.name][q.name] = cell{b, sB, cB}
			shufB += sB
			bcastB += cB
			line = append(line, fmt.Sprintf("%d", b), lat.Round(time.Microsecond).String())
		}
		line = append(line, fmt.Sprintf("%d", shufB), fmt.Sprintf("%d", bcastB))
		rows = append(rows, line)
	}

	// Identity across parallel degrees under the automatic policy.
	c.JoinPolicy = plan.DistJoinPolicy{}
	for _, degree := range []int{1, 2, 4} {
		c.ParallelDegree = degree
		for _, q := range queries {
			_, _, _, _, key, err := measure(q.sql)
			if err != nil {
				return err
			}
			if key != keys[q.name] {
				return fmt.Errorf("joins: %s results diverge at parallel degree %d", q.name, degree)
			}
		}
	}
	c.ParallelDegree = 0

	benchfmt.Table(w, "Distributed joins — strategy vs fabric bytes, 2x8k facts + 64-row dim @4 shards (E20)",
		[]string{"strategy", "aligned B/q", "latency", "smalldim B/q", "latency", "repart B/q", "latency", "shuffle B", "bcast B"}, rows)

	// The reductions the strategies exist for, enforced strictly: each
	// strategy must beat hauling both inputs to the coordinator on the
	// query shape it is built for.
	if co, cn := cells["colocated"]["aligned"].bytes, cells["cn-fallback"]["aligned"].bytes; co >= cn {
		return fmt.Errorf("joins: co-located moved %d B vs %d B at the CN — wanted strictly fewer", co, cn)
	}
	if sh, cn := cells["shuffle"]["repart"].bytes, cells["cn-no-bloom"]["repart"].bytes; sh >= cn {
		return fmt.Errorf("joins: shuffle moved %d B vs %d B hauled to the CN — wanted strictly fewer", sh, cn)
	}
	if cells["shuffle"]["repart"].shufB == 0 {
		return fmt.Errorf("joins: forced shuffle sent no shuffle_part bytes")
	}
	if cells["broadcast"]["smalldim"].bcastB == 0 {
		return fmt.Errorf("joins: forced broadcast sent no bcast_build bytes")
	}

	// Planning stays inside the microsecond budget: a 6-table join chain
	// must plan (route + order + compile) in under 100µs on a warm run.
	for ti := 0; ti < 6; ti++ {
		if _, err := s.Exec(fmt.Sprintf("CREATE TABLE jp%d (k%d BIGINT, v%d BIGINT) DISTRIBUTE BY HASH(k%d)", ti, ti, ti, ti)); err != nil {
			return err
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "INSERT INTO jp%d VALUES ", ti)
		for i := 0; i < 32; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i%8, i)
		}
		if _, err := s.Exec(sb.String()); err != nil {
			return err
		}
	}
	sixQ := "SELECT count(*) FROM jp0, jp1, jp2, jp3, jp4, jp5" +
		" WHERE jp0.k0 = jp1.k1 AND jp1.k1 = jp2.k2 AND jp2.k2 = jp3.k3 AND jp3.k3 = jp4.k4 AND jp4.k4 = jp5.k5"
	fab.SetBaseLatency(0)
	fab.SetBandwidth(0)
	minPlan := time.Duration(1 << 62)
	for i := 0; i < 100; i++ {
		res, err := s.Exec(sixQ)
		if err != nil {
			return err
		}
		if res.PlanTime > 0 && res.PlanTime < minPlan {
			minPlan = res.PlanTime
		}
	}
	fmt.Fprintf(w, "6-table join planning: best of 100 = %v (budget 100µs)\n\n", minPlan.Round(time.Microsecond))
	if minPlan > 100*time.Microsecond {
		return fmt.Errorf("joins: 6-table planning took %v, budget is 100µs", minPlan)
	}
	return nil
}

// Autopilot (E21) closes the autonomic loop end to end and proves it safe
// by construction: the same deterministic script of idempotent absolute-value
// UPDATEs — 4:1 of the traffic aimed at a handful of hot buckets on one DN —
// runs twice on a 4-DN sync-replicated cluster with the autopilot ticking.
// The chaos run additionally kills one primary a third of the way in and
// revives it at two thirds; the only management calls in either run are
// ap.Tick(). The autopilot must on its own promote a standby, re-enroll the
// returned ex-primary, and spread the hot buckets until the per-window heat
// ratio falls to TargetRatio. Because every UPDATE writes an absolute value,
// retries across the failover window are idempotent, so the two runs must end
// with bit-identical table digests (TableChecksum is placement-independent:
// bucket moves cannot mask, or fake, lost transactions).
func Autopilot(w io.Writer) error {
	const ops = 4000
	const tableRows = 512
	const batch = 48 // ops per autopilot tick: one heat window

	// The scripted key/value sequence is fixed up front so both runs apply
	// the same update multiset; final[] lets the settle phase keep traffic
	// (and therefore heat windows) flowing without changing table contents.
	type update struct {
		key int64
		val int64
	}
	script := make([]update, ops)
	final := map[int64]int64{}

	type runStats struct {
		name      string
		retries   int
		moves     int
		failovers int64
		reenrolls int
		quorumOps int
		ratio     float64
		wall      time.Duration
		digest    cluster.TableDigest
	}

	run := func(name string, chaos bool) (runStats, error) {
		st := runStats{name: name}
		db, err := core.Open(core.Options{DataNodes: 4})
		if err != nil {
			return st, err
		}
		defer db.Close()
		c := db.Cluster()
		s := db.Session()
		if _, err := s.Exec("CREATE TABLE hotacct (id BIGINT, balance BIGINT) DISTRIBUTE BY HASH(id)"); err != nil {
			return st, err
		}
		for lo := 0; lo < tableRows; lo += 128 {
			var sb strings.Builder
			sb.WriteString("INSERT INTO hotacct VALUES ")
			for id := lo; id < lo+128; id++ {
				if id > lo {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "(%d, 0)", id)
			}
			if _, err := s.Exec(sb.String()); err != nil {
				return st, err
			}
		}

		// The hash layout is seeded and identical across runs: pick the DN
		// owning the most ids and aim the skew at six of its buckets.
		owners := c.BucketOwners()
		perDN := map[int]int{}
		for id := 0; id < tableRows; id++ {
			perDN[owners[cluster.BucketOf(types.NewInt(int64(id)))]]++
		}
		hotDN := -1
		for dn, n := range perDN {
			if hotDN < 0 || n > perDN[hotDN] || (n == perDN[hotDN] && dn < hotDN) {
				hotDN = dn
			}
		}
		var hotKeys []int64
		seen := map[int]bool{}
		for id := 0; id < tableRows && len(hotKeys) < 6; id++ {
			b := cluster.BucketOf(types.NewInt(int64(id)))
			if owners[b] == hotDN && !seen[b] {
				seen[b] = true
				hotKeys = append(hotKeys, int64(id))
			}
		}
		if len(hotKeys) < 2 {
			return st, fmt.Errorf("autopilot: hot DN owns %d distinct buckets, need >= 2", len(hotKeys))
		}
		pick := func(rng *rand.Rand) int64 {
			if rng.Float64() < 4.0/7.0 { // hot DN carries 4x each peer's share
				return hotKeys[rng.Intn(len(hotKeys))]
			}
			return int64(rng.Intn(tableRows))
		}
		if script[0].val == 0 { // first run builds the shared script
			rng := rand.New(rand.NewSource(21))
			for i := range script {
				script[i] = update{key: pick(rng), val: int64(i + 1)}
				final[script[i].key] = script[i].val
			}
		}

		ha, err := db.EnableHA(repl.Config{
			Mode:             repl.ModeSync,
			QuorumAcks:       1,
			SyncTimeout:      50 * time.Millisecond,
			StandbysPerShard: 1,
		})
		if err != nil {
			return st, err
		}
		ap := db.NewAutopilot(autonomous.SLA{TargetP95: 200 * time.Millisecond})
		ap.MinHeat = 16
		ap.Actions.SetCooldown("move-bucket", 10*time.Millisecond)
		ap.Actions.SetCooldown("set-quorum", 50*time.Millisecond)
		ap.Actions.SetCooldown("reattach-orphan", 20*time.Millisecond)
		ap.Actions.SetCooldown("reenroll-standby", 20*time.Millisecond)

		victim := -1
		for _, p := range c.PrimaryIDs() {
			if p != hotDN {
				victim = p
				break
			}
		}

		// Retry-until-commit: absolute values make re-execution after an
		// ambiguous outcome harmless, and each retry yields to the autopilot
		// so the loop itself performs the failover.
		exec := func(u update) error {
			stmt := fmt.Sprintf("UPDATE hotacct SET balance = %d WHERE id = %d", u.val, u.key)
			deadline := time.Now().Add(30 * time.Second)
			for {
				if _, err := s.Exec(stmt); err == nil {
					return nil
				}
				st.retries++
				ap.Tick()
				if time.Now().After(deadline) {
					return fmt.Errorf("autopilot(%s): update on id %d never committed", name, u.key)
				}
				time.Sleep(time.Millisecond)
			}
		}

		start := time.Now()
		for i, u := range script {
			if chaos && i == len(script)/3 {
				c.SetDataNodeDown(victim, true)
			}
			if chaos && i == 2*len(script)/3 {
				c.SetDataNodeDown(victim, false)
			}
			if err := exec(u); err != nil {
				return st, err
			}
			if i%batch == batch-1 {
				ap.Tick()
			}
		}

		// Settle: keep the heat windows alive with idempotent re-writes of
		// each key's final value (table contents never change) until the
		// loop has spread the skew and restored full redundancy.
		converged := func() bool {
			tot, _ := ap.Info.Last("cluster.bucket_heat.total")
			ratio, ok := ap.Info.Last("cluster.bucket_heat.ratio")
			if !ok || tot < float64(ap.MinHeat) || ratio > ap.TargetRatio {
				return false
			}
			st.ratio = ratio
			if ap.Actions.Count("move-bucket") == 0 {
				return false
			}
			if chaos && (ha.Failovers() < 1 || ap.Actions.Count("reenroll-standby") < 1) {
				return false
			}
			prims := ha.GroupPrimaries()
			if len(prims) != 4 {
				return false
			}
			for _, p := range prims {
				if len(ha.Replicas(p)) < 1 || len(ha.Orphans(p)) > 0 {
					return false
				}
			}
			return true
		}
		settle := rand.New(rand.NewSource(99))
		deadline := time.Now().Add(45 * time.Second)
		for {
			ap.Tick()
			if converged() {
				break
			}
			if time.Now().After(deadline) {
				return st, fmt.Errorf("autopilot(%s): no convergence: moves=%d failovers=%d reenrolls=%d ratio=%.2f",
					name, ap.Actions.Count("move-bucket"), ha.Failovers(),
					ap.Actions.Count("reenroll-standby"), st.ratio)
			}
			for j := 0; j < batch; j++ {
				k := pick(settle)
				if err := exec(update{key: k, val: final[k]}); err != nil {
					return st, err
				}
			}
		}
		st.wall = time.Since(start)

		// Quiesce: land any in-flight bucket move and drain replication so
		// the digest sees a stable, fully replicated cluster.
		for dl := time.Now().Add(15 * time.Second); ap.MoveInFlight(); {
			if time.Now().After(dl) {
				return st, fmt.Errorf("autopilot(%s): bucket move never landed", name)
			}
			time.Sleep(time.Millisecond)
		}
		for _, p := range ha.GroupPrimaries() {
			for dl := time.Now().Add(15 * time.Second); !ha.Synced(p); {
				if time.Now().After(dl) {
					return st, fmt.Errorf("autopilot(%s): group dn%d never drained (lag %d)", name, p, ha.Lag(p))
				}
				ap.Tick()
				time.Sleep(time.Millisecond)
			}
		}
		for _, rs := range ha.Status().Replicas {
			if rs.Broken {
				return st, fmt.Errorf("autopilot(%s): replica dn%d of dn%d still broken", name, rs.Node, rs.Primary)
			}
		}

		st.moves = ap.Actions.Count("move-bucket")
		st.failovers = ha.Failovers()
		st.reenrolls = ap.Actions.Count("reenroll-standby")
		st.quorumOps = ap.Actions.Count("set-quorum")
		st.digest, err = c.TableChecksum("hotacct")
		return st, err
	}

	ref, err := run("fault-free", false)
	if err != nil {
		return err
	}
	cha, err := run("primary-kill", true)
	if err != nil {
		return err
	}

	var rows [][]string
	for _, st := range []runStats{ref, cha} {
		rows = append(rows, []string{
			st.name,
			fmt.Sprintf("%d", ops),
			fmt.Sprintf("%d", st.retries),
			fmt.Sprintf("%d", st.moves),
			fmt.Sprintf("%d", st.failovers),
			fmt.Sprintf("%d", st.reenrolls),
			fmt.Sprintf("%d", st.quorumOps),
			benchfmt.F(st.ratio),
			fmt.Sprintf("%dr/%016x", st.digest.Rows, st.digest.Sum),
		})
	}
	benchfmt.Table(w, "Autopilot closed loop — 4:1 hot-bucket skew, sync HA, zero operator calls (E21)",
		[]string{"run", "ops", "retries", "moves", "failovers", "reenrolls", "set-quorum", "final ratio", "digest"}, rows)
	fmt.Fprintf(w, "heat ratio converged to <= %.2f in both runs; all management actions were autopilot ticks\n", 1.5)
	if cha.digest != ref.digest {
		return fmt.Errorf("autopilot: chaos digest %+v != fault-free digest %+v — committed work was lost or duplicated", cha.digest, ref.digest)
	}
	if cha.failovers < 1 || cha.reenrolls < 1 {
		return fmt.Errorf("autopilot: chaos run recorded %d failovers / %d reenrolls, want >= 1 of each", cha.failovers, cha.reenrolls)
	}
	fmt.Fprintf(w, "digest identity: chaos == fault-free (%d rows, sum %016x) — zero loss through kill, failover, re-enroll, and %d bucket moves\n\n",
		cha.digest.Rows, cha.digest.Sum, cha.moves)
	return nil
}
