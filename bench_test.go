// Package repro_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (experiment ids E1–E20 in
// DESIGN.md). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the figure's headline metric via b.ReportMetric,
// so `go test -bench` output doubles as the reproduction record; the same
// tables print from cmd/fibench.
package repro_test

import (
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dsync"
	"repro/internal/experiments"
	"repro/internal/gmdb"
	"repro/internal/gmdb/schema"
	"repro/internal/mme"
	"repro/internal/perfsim"
	"repro/internal/plan"
	"repro/internal/rebalance"
	"repro/internal/repl"
	"repro/internal/tpcc"
	"repro/internal/transport"
)

// ---------------------------------------------------------------------------
// E1 — Fig 3: GTM-Lite scalability
// ---------------------------------------------------------------------------

// BenchmarkFig3GTMLiteScalability regenerates Fig 3's four series by
// replaying the live engine's recorded paths (experiments.RecordPaths) in
// the virtual-time simulator. The metric "txn/s(virtual)" is the figure's
// y-axis.
func BenchmarkFig3GTMLiteScalability(b *testing.B) {
	lite, baseline := recordPaths(b)
	protos := []struct {
		name  string
		paths perfsim.Paths
	}{{cluster.ModeGTMLite.String(), lite}, {cluster.ModeBaseline.String(), baseline}}
	for _, proto := range protos {
		for _, ss := range []float64{1.0, 0.9} {
			for _, nodes := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/ss=%.0f%%/nodes=%d", proto.name, ss*100, nodes)
				b.Run(name, func(b *testing.B) {
					var last perfsim.Result
					for i := 0; i < b.N; i++ {
						p := perfsim.DefaultParams(nodes, ss)
						p.Duration = 0.5
						last = perfsim.Run(p, proto.paths)
					}
					b.ReportMetric(last.Throughput, "txn/s(virtual)")
					b.ReportMetric(last.GTMUtilization*100, "gtm-util-%")
				})
			}
		}
	}
}

// recordPaths records both protocols' paths on the live engine.
func recordPaths(b *testing.B) (lite, baseline perfsim.Paths) {
	b.Helper()
	lite, baseline, err := experiments.RecordPaths()
	if err != nil {
		b.Fatal(err)
	}
	return lite, baseline
}

// BenchmarkTPCCLiveEngine is the E1 companion on the real engine: wall
// clock txn/s for both protocols (absolute numbers are single-host; the
// protocol-level contrast is the GTM request count).
func BenchmarkTPCCLiveEngine(b *testing.B) {
	for _, mode := range []cluster.TxnMode{cluster.ModeGTMLite, cluster.ModeBaseline} {
		b.Run(mode.String(), func(b *testing.B) {
			c, err := cluster.New(cluster.Config{DataNodes: 4, Mode: mode})
			if err != nil {
				b.Fatal(err)
			}
			cfg := tpcc.DefaultConfig(4, 0.9)
			if err := tpcc.Load(c, cfg); err != nil {
				b.Fatal(err)
			}
			d := tpcc.NewDriver(c, cfg, 0)
			base := c.GTMStats().Total()
			b.ResetTimer()
			if err := d.Run(b.N); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(c.GTMStats().Total()-base)/float64(b.N), "gtm-reqs/txn")
		})
	}
}

// ---------------------------------------------------------------------------
// E2 — Table I: the learning optimizer's plan store
// ---------------------------------------------------------------------------

// BenchmarkTable1PlanStore executes the paper's §II-C query repeatedly
// with the learning loop on; after the first run the optimizer serves the
// captured actuals (the consumer path of Fig 5).
func BenchmarkTable1PlanStore(b *testing.B) {
	db, err := core.Open(core.Options{DataNodes: 2, Learning: true})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.MustExec("CREATE TABLE olap.t1 (a1 BIGINT, b1 BIGINT) DISTRIBUTE BY HASH(a1)")
	db.MustExec("CREATE TABLE olap.t2 (a2 BIGINT, c2 TEXT) DISTRIBUTE BY HASH(a2)")
	s := db.Session()
	for i := 0; i < 150; i++ {
		s.Exec(fmt.Sprintf("INSERT INTO olap.t1 VALUES (%d, %d)", i%25, i))
	}
	for i := 0; i < 25; i++ {
		s.Exec(fmt.Sprintf("INSERT INTO olap.t2 VALUES (%d, 'n%d')", i, i))
	}
	const q = "select * from OLAP.t1, OLAP.t2 where OLAP.t1.a1=OLAP.t2.a2 and OLAP.t1.b1 > 10"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(db.PlanStore().Len()), "stored-steps")
}

// ---------------------------------------------------------------------------
// E4 — Fig 11: GMDB online schema evolution
// ---------------------------------------------------------------------------

func newMMEStore(b *testing.B) (*gmdb.Store, []string) {
	b.Helper()
	reg := schema.NewRegistry()
	if err := mme.RegisterAll(reg); err != nil {
		b.Fatal(err)
	}
	store := gmdb.NewStore(reg, gmdb.Config{Partitions: 2})
	b.Cleanup(store.Close)
	rng := rand.New(rand.NewSource(1))
	keys := make([]string, 64)
	for i := range keys {
		obj, err := mme.GenerateSession(rng, 5, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = fmt.Sprintf("imsi-%d", i)
		if err := store.Put(keys[i], obj); err != nil {
			b.Fatal(err)
		}
	}
	return store, keys
}

// BenchmarkFig11SchemaEvolution measures GMDB reads with on-the-fly
// conversion: same-version, adjacent upgrade, adjacent downgrade and
// multi-hop — Fig 11's cases over synthetic 5-10KB MME sessions.
func BenchmarkFig11SchemaEvolution(b *testing.B) {
	cases := []struct {
		name    string
		version int
	}{
		{"read-same-version-V5", 5},
		{"read-upgrade-V5-to-V6", 6},
		{"read-downgrade-V5-to-V3", 3},
		{"read-multihop-V5-to-V8", 8},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			store, keys := newMMEStore(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := store.Get(keys[i%len(keys)], tc.version); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// E9 — delta sync vs whole-object sync
// ---------------------------------------------------------------------------

// BenchmarkDeltaSync compares GMDB's two update paths; "sync-bytes/op" is
// the bandwidth a subscribed client pays per update.
func BenchmarkDeltaSync(b *testing.B) {
	b.Run("whole-object-put", func(b *testing.B) {
		store, keys := newMMEStore(b)
		sub, err := store.Subscribe(keys[0], 5, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Cancel()
		rng := rand.New(rand.NewSource(2))
		objs := make([]*schema.Object, 8)
		for i := range objs {
			objs[i], _ = mme.GenerateSession(rng, 5, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store.Put(keys[0], objs[i%len(objs)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(store.Fabric().Stats().Get(transport.GMDBPub).Bytes)/float64(b.N), "sync-bytes/op")
	})
	b.Run("delta-update", func(b *testing.B) {
		store, keys := newMMEStore(b)
		sub, err := store.Subscribe(keys[0], 5, 1<<16)
		if err != nil {
			b.Fatal(err)
		}
		defer sub.Cancel()
		rng := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d, _ := mme.SessionDelta(rng, 5, keys[0], 0)
			if err := store.ApplyDelta(keys[0], d); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(store.Fabric().Stats().Get(transport.GMDBDelta).Bytes)/float64(b.N), "sync-bytes/op")
	})
}

// ---------------------------------------------------------------------------
// E6 — learning optimizer quality
// ---------------------------------------------------------------------------

// BenchmarkLearningOptimizer reports the mean Q-error of the canned
// workload cold (histograms only) vs warm (plan-store actuals).
func BenchmarkLearningOptimizer(b *testing.B) {
	var res experiments.LearnResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Learn(io.Discard)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.QErrBefore, "qerr-cold")
	b.ReportMetric(res.QErrAfter, "qerr-warm")
}

// ---------------------------------------------------------------------------
// E8 — ablations
// ---------------------------------------------------------------------------

// BenchmarkAblationCrossShardFraction sweeps the multi-shard fraction at 4
// nodes over the recorded paths; GTM-lite's advantage decays toward 1x as
// cross-shard work grows.
func BenchmarkAblationCrossShardFraction(b *testing.B) {
	litePaths, basePaths := recordPaths(b)
	for _, ss := range []float64{1.0, 0.9, 0.5, 0.0} {
		b.Run(fmt.Sprintf("cross-shard=%.0f%%", (1-ss)*100), func(b *testing.B) {
			var lite, base perfsim.Result
			for i := 0; i < b.N; i++ {
				p := perfsim.DefaultParams(4, ss)
				p.Duration = 0.5
				lite, base = perfsim.Run(p, litePaths), perfsim.Run(p, basePaths)
			}
			b.ReportMetric(lite.Throughput/base.Throughput, "speedup-x")
		})
	}
}

// BenchmarkAblationGTMLatency sweeps the GTM service time at 8 nodes over
// the recorded paths: the slower the centralized service, the harder the
// baseline flattens while GTM-lite is unaffected.
func BenchmarkAblationGTMLatency(b *testing.B) {
	litePaths, basePaths := recordPaths(b)
	for _, svc := range []float64{5e-6, 25e-6, 100e-6} {
		b.Run(fmt.Sprintf("gtm-service=%.0fus", svc*1e6), func(b *testing.B) {
			var lite, base perfsim.Result
			for i := 0; i < b.N; i++ {
				p := perfsim.DefaultParams(8, 0.9)
				p.GTMService = svc
				p.Duration = 0.5
				lite, base = perfsim.Run(p, litePaths), perfsim.Run(p, basePaths)
			}
			b.ReportMetric(lite.Throughput, "lite-txn/s")
			b.ReportMetric(base.Throughput, "baseline-txn/s")
		})
	}
}

// ---------------------------------------------------------------------------
// E10 — device-edge-cloud sync
// ---------------------------------------------------------------------------

// BenchmarkEdgeSync runs E10 (6 devices, 20 keys each); "sim-ms" is the
// virtual convergence time over the paper's 10x link asymmetry.
func BenchmarkEdgeSync(b *testing.B) {
	var mesh, cloud dsync.ConvergeResult
	for i := 0; i < b.N; i++ {
		mesh, cloud, _ = experiments.EdgeSync(io.Discard, 6, 20)
	}
	for _, run := range []struct {
		name string
		r    dsync.ConvergeResult
	}{{"p2p-mesh-direct", mesh}, {"via-cloud-internet", cloud}} {
		if !run.r.Converged {
			b.Fatalf("%s did not converge", run.name)
		}
		b.ReportMetric(float64(run.r.SimTime)/float64(time.Millisecond), run.name+"-sim-ms")
		b.ReportMetric(float64(run.r.Bytes), run.name+"-bytes")
	}
}

// ---------------------------------------------------------------------------
// E11 — online cluster expansion
// ---------------------------------------------------------------------------

// BenchmarkExpansion measures a live 2 -> 4 shard expansion of a loaded
// TPC-C-like cluster: wall-clock per full rebalance, plus the migration
// volume (buckets and rows moved). Queries stay online throughout; the
// fibench "expand" experiment additionally measures throughput during the
// migration window.
func BenchmarkExpansion(b *testing.B) {
	var moved, rows int
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := core.Open(core.Options{DataNodes: 2})
		if err != nil {
			b.Fatal(err)
		}
		cfg := tpcc.DefaultConfig(8, 0.9)
		if err := tpcc.Load(db.Cluster(), cfg); err != nil {
			b.Fatal(err)
		}
		before, err := db.Cluster().TableChecksum("customer")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		p, err := db.Expand(4, rebalance.Options{MaxConcurrentMoves: 4})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		after, err := db.Cluster().TableChecksum("customer")
		if err != nil {
			b.Fatal(err)
		}
		if after != before {
			b.Fatalf("customer checksum changed: %+v -> %+v", before, after)
		}
		moved, rows = p.Moved, p.RowsCopied
		db.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(moved), "buckets-moved")
	b.ReportMetric(float64(rows), "rows-copied")
}

// ---------------------------------------------------------------------------
// Engine micro-benchmarks (substrate performance context)
// ---------------------------------------------------------------------------

// BenchmarkSQLPointRead measures the single-shard read path end to end
// (parse, route, local snapshot, indexed lookup).
func BenchmarkSQLPointRead(b *testing.B) {
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.MustExec("CREATE TABLE kv (k BIGINT, v TEXT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v%d')", i, i))
	}
	s := db.Session()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i%1000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelScatterAgg measures E13's headline: intra-query
// parallelism on a scatter aggregate. Each data node's scan+partial-agg is
// one exchange fragment; with the per-hop network cost model enabled the
// four DN round trips overlap instead of serializing. The queries run
// inside one explicit transaction so the (serial, degree-independent)
// escalation and 2PC hops are paid once, not per measured statement.
func BenchmarkParallelScatterAgg(b *testing.B) {
	db, err := core.Open(core.Options{DataNodes: 4, HopLatency: 3 * time.Millisecond})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.MustExec("CREATE TABLE pfacts (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	s := db.Session()
	for i := 0; i < 8000; i++ {
		s.Exec(fmt.Sprintf("INSERT INTO pfacts VALUES (%d, %d, %d)", i, i%8, i))
	}
	for _, degree := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("degree=%d", degree), func(b *testing.B) {
			db.Cluster().ParallelDegree = degree
			if _, err := s.Exec("BEGIN"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec("SELECT grp, count(*), sum(v) FROM pfacts GROUP BY grp"); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if _, err := s.Exec("COMMIT"); err != nil {
				b.Fatal(err)
			}
		})
	}
	db.Cluster().ParallelDegree = 0
}

// ---------------------------------------------------------------------------
// E14 — standby replication failover
// ---------------------------------------------------------------------------

// BenchmarkFailover measures E14's headline: fence-to-promotion latency of
// a standby takeover. Each iteration builds a loaded 2-shard cluster with a
// standby pair, commits write traffic through the ship log, kills the
// primary and times the full failover (fence, settle, drain, digest verify,
// bucket flip).
func BenchmarkFailover(b *testing.B) {
	for _, mode := range []repl.Mode{repl.ModeAsync, repl.ModeSync} {
		b.Run(mode.String(), func(b *testing.B) {
			var promote time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
				if err != nil {
					b.Fatal(err)
				}
				s := c.NewSession()
				if _, err := s.Exec("CREATE TABLE accounts (id BIGINT, balance BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)"); err != nil {
					b.Fatal(err)
				}
				m := repl.NewManager(c, repl.Config{Mode: mode})
				if _, err := m.AttachStandby(0); err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 200; k++ {
					if _, err := s.Exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, 100)", k)); err != nil {
						b.Fatal(err)
					}
				}
				c.SetDataNodeDown(0, true)
				b.StartTimer()
				rep, err := m.Failover(0)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				promote += rep.Elapsed
				m.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(promote.Microseconds())/float64(b.N)/1e3, "promote-ms")
		})
	}
}

// BenchmarkStorageFormats contrasts the hybrid storage layouts (paper §II:
// "hybrid row-column storage") on a scatter aggregate: columnar segments
// decode compressed vectors, the row heap walks tuples.
func BenchmarkStorageFormats(b *testing.B) {
	for _, storage := range []string{"ROW", "COLUMN"} {
		b.Run(storage, func(b *testing.B) {
			db, err := core.Open(core.Options{DataNodes: 2})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			db.MustExec(fmt.Sprintf(
				"CREATE TABLE f (k BIGINT, grp BIGINT, v DOUBLE) DISTRIBUTE BY HASH(k) USING %s", storage))
			s := db.Session()
			for i := 0; i < 20000; i++ {
				s.Exec(fmt.Sprintf("INSERT INTO f VALUES (%d, %d, %d.5)", i, i%4, i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec("SELECT grp, sum(v), min(v), max(v) FROM f GROUP BY grp"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTwoPhaseAggregation measures the MPP exchange-volume win of
// DN-side partial aggregation: rows shipped to the coordinator per query,
// pushdown (count/sum/min/max merge) vs gather (avg forces the fallback).
func BenchmarkTwoPhaseAggregation(b *testing.B) {
	setup := func(b *testing.B) *core.DB {
		db, err := core.Open(core.Options{DataNodes: 4})
		if err != nil {
			b.Fatal(err)
		}
		db.MustExec("CREATE TABLE f (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")
		s := db.Session()
		for i := 0; i < 10000; i++ {
			s.Exec(fmt.Sprintf("INSERT INTO f VALUES (%d, %d, %d)", i, i%8, i))
		}
		return db
	}
	b.Run("pushed-down", func(b *testing.B) {
		db := setup(b)
		defer db.Close()
		var shipped int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query("SELECT grp, sum(v) FROM f GROUP BY grp")
			if err != nil {
				b.Fatal(err)
			}
			shipped = res.RowsShipped
		}
		b.ReportMetric(float64(shipped), "rows-shipped")
	})
	b.Run("gather-fallback", func(b *testing.B) {
		db := setup(b)
		defer db.Close()
		var shipped int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := db.Query("SELECT grp, avg(v) FROM f GROUP BY grp")
			if err != nil {
				b.Fatal(err)
			}
			shipped = res.RowsShipped
		}
		b.ReportMetric(float64(shipped), "rows-shipped")
	})
}

// ---------------------------------------------------------------------------
// E15 — transport message accounting
// ---------------------------------------------------------------------------

// BenchmarkNetworkMessages reports E15's headline metric: GTM messages per
// committed transaction under the all-through-GTM baseline vs GTM-lite at
// a 90 % single-shard TPC-C-like mix, read off the transport fabric's
// per-type counters.
func BenchmarkNetworkMessages(b *testing.B) {
	for _, mode := range []cluster.TxnMode{cluster.ModeBaseline, cluster.ModeGTMLite} {
		b.Run(mode.String(), func(b *testing.B) {
			var gtmPerTxn, totalPerTxn float64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Config{DataNodes: 4, Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				cfg := tpcc.DefaultConfig(8, 0.9)
				if err := tpcc.Load(c, cfg); err != nil {
					b.Fatal(err)
				}
				c.Fabric().ResetCounters()
				d := tpcc.NewDriver(c, cfg, 1)
				if err := d.Run(200); err != nil {
					b.Fatal(err)
				}
				st := c.Fabric().Stats()
				committed := float64(d.Stats.Committed)
				gtmPerTxn = float64(st.Get(transport.SnapshotReq).Count+st.Get(transport.GTMRound).Count) / committed
				totalPerTxn = float64(st.Total()) / committed
			}
			b.ReportMetric(gtmPerTxn, "gtm-msgs/txn")
			b.ReportMetric(totalPerTxn, "msgs/txn")
		})
	}
}

// ---------------------------------------------------------------------------
// E18 — near-data processing
// ---------------------------------------------------------------------------

// BenchmarkNDPSelectiveScan measures E18's headline: scan_frag bytes per
// query for a selective filter + TopN scatter scan with pushdown off (rows
// pulled to the CN, filtered there) vs full NDP (DN-side vectorized filter,
// projected columns, per-fragment bounded TopN).
func BenchmarkNDPSelectiveScan(b *testing.B) {
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	db.MustExec("CREATE TABLE nf (k BIGINT, v BIGINT, p1 BIGINT, p2 BIGINT, p3 BIGINT, p4 BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN")
	s := db.Session()
	const total = 16384
	s.Exec("BEGIN")
	for lo := 0; lo < total; lo += 512 {
		q := "INSERT INTO nf VALUES "
		for i := lo; i < lo+512; i++ {
			if i > lo {
				q += ","
			}
			q += fmt.Sprintf("(%d, %d, %d, %d, %d, %d)", i, i, i, i, i, i)
		}
		s.Exec(q)
	}
	s.Exec("COMMIT")
	const query = "SELECT k, v FROM nf WHERE v >= 15872 ORDER BY v DESC LIMIT 10"
	c := db.Cluster()
	for _, level := range []plan.PushdownLevel{plan.PushdownOff, plan.PushdownBloom} {
		name := "off"
		if level == plan.PushdownBloom {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			c.Pushdown = level
			defer func() { c.Pushdown = plan.PushdownBloom }()
			before := c.Fabric().Stats().Get(transport.ScanFrag)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(query); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			after := c.Fabric().Stats().Get(transport.ScanFrag)
			b.ReportMetric(float64(after.Bytes-before.Bytes)/float64(b.N), "scanfrag-B/query")
		})
	}
}
