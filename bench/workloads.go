package main

import (
	"fmt"
	"time"

	"repro/internal/tpcc"
)

// wanHop is the wan workload's one-way fabric latency. Any sleep shorter
// than about a millisecond costs a flat 1.1 ms on a small box, so a
// shorter hop would measure the kernel timer, not the hop count.
const wanHop = 5 * time.Millisecond

// htapTxnsPerQuery paces the htap reader: one analytical query per this
// many writer transactions, so the mix — and with it every per-operation
// counter — is the same in every run however fast either side is.
const htapTxnsPerQuery = 10

// workload is one named traffic mix over a fresh 4-data-node cluster.
// Load is closed-loop: each client issues its next operation when the
// previous one has returned. An epoch runs a fixed number of operations,
// not a duration, because version heaps grow with every update: a fixed
// count keeps the work, the table growth and the counters identical on
// both sides of a comparison. A run repeats epochs until its time is up.
type workload struct {
	name     string
	headline string        // the latency metric that stands in for those of classes the workload does not run
	hop      time.Duration // fabric base latency during the timed phase
	degree   int           // Cluster.ParallelDegree (0: the default, GOMAXPROCS)
	htap     bool          // attach columnar replicas after the load
	// load returns the DDL and INSERT statements of the set-up; tpccCfg, when
	// it has warehouses, is loaded with tpcc.Load as well.
	load    func() []string
	tpccCfg tpcc.Config
	analyze []string
	// plan pre-generates one epoch's operations from the seed.
	plan func(seed int64) *plan
}

var workloadNames = []string{"point", "tpcc", "analytics", "htap", "wan"}

// scale divides every table size and operation count; tests run at 1/50.
type scale int

func (s scale) of(n, min int) int {
	if n /= int(s); n < min {
		return min
	}
	return n
}

func tpccConfig(s scale, warehouses int) tpcc.Config {
	return tpcc.Config{
		Warehouses:            warehouses,
		DistrictsPerWarehouse: 10,
		CustomersPerDistrict:  s.of(30, 3),
		Items:                 s.of(100, 10),
		SingleShardFraction:   0.9,
		NewOrderWeight:        0.5,
	}
}

// splitHomes binds each client to its own warehouses, as TPC-C terminals are.
func splitHomes(warehouses, clients int) [][]int {
	homes := make([][]int, clients)
	for w := 0; w < warehouses; w++ {
		homes[w*clients/warehouses] = append(homes[w*clients/warehouses], w)
	}
	return homes
}

func tpccPlan(cfg tpcc.Config, clients, txnsPerClient int) func(seed int64) *plan {
	return func(seed int64) *plan {
		homes := splitHomes(cfg.Warehouses, clients)
		gens := make([]*tpccGen, clients)
		p := &plan{clients: make([][]op, clients)}
		for c := range gens {
			gens[c] = newTPCCGen(cfg, homes[c], seed, c)
			for i := 0; i < txnsPerClient; i++ {
				p.clients[c] = append(p.clients[c], gens[c].next())
			}
		}
		p.final = tpccFinal(gens)
		return p
	}
}

// newWorkload builds the named workload at scale s. seed fixes the data
// of the read-only tables; the per-epoch plans take their own seeds.
func newWorkload(name string, s scale, seed int64) (*workload, error) {
	w := &workload{name: name}
	switch name {
	case "point":
		// kv is larger than any one statement touches and read through the
		// whole front door; 80 % reads, 20 % updates, Zipfian(1.1) keys.
		const clients = 2
		rows, opsPerClient := s.of(20000, 200), s.of(4000, 100)
		w.headline = "read_ms_p50"
		w.load = func() []string { return kvLoad(rows) }
		w.plan = func(seed int64) *plan {
			gens := make([]*pointGen, clients)
			p := &plan{clients: make([][]op, clients)}
			for c := range gens {
				gens[c] = newPointGen(rows, seed, c, clients)
				for i := 0; i < opsPerClient; i++ {
					p.clients[c] = append(p.clients[c], gens[c].next())
				}
			}
			check := kvFinal(rows, gens)
			p.final = func(q querier, _ [numClasses]int64, failed int64) error { return check(q, failed) }
			return p
		}

	case "tpcc":
		w.headline = "neworder_ms_mean"
		w.tpccCfg = tpccConfig(s, 8)
		w.plan = tpccPlan(w.tpccCfg, 2, s.of(2000, 40))

	case "analytics":
		// ParallelDegree 4 = data nodes: each DN runs its own fragment, and
		// the default degree deadlocks the shuffle join on two cores.
		data := newAnalyticsData(s.of(100000, 2000), s.of(16384, 512), seed)
		rounds := s.of(40, 2) // at least 2: the first round's first query is the warm-up
		w.headline = "agg_ms_p50"
		w.degree = 4
		w.load = data.load
		w.analyze = analyticsTables
		w.plan = func(seed int64) *plan {
			g := newAnalyticsGen(data, seed)
			var ops []op
			for r := 0; r < rounds; r++ {
				for _, c := range []class{clAgg, clFilter, clTopN, clSort, clJoinColocated, clJoinBcast, clJoinShuffle} {
					ops = append(ops, g.query(c))
				}
			}
			return &plan{clients: [][]op{ops}, final: func(querier, [numClasses]int64, int64) error { return nil }}
		}

	case "htap":
		// One writer runs TPC-C over all warehouses; one reader cycles E19's
		// four analytical queries, paced by the writer's progress.
		w.headline = "neworder_ms_mean"
		w.htap = true
		w.tpccCfg = tpccConfig(s, 8)
		txns := s.of(3000, 40)
		writer := tpccPlan(w.tpccCfg, 1, txns)
		queries := htapQueries(w.tpccCfg)
		w.plan = func(seed int64) *plan {
			p := writer(seed)
			var reader []op
			for i := 0; (i+1)*htapTxnsPerQuery <= txns; i++ {
				reader = append(reader, op{class: clAgg, after: int64((i + 1) * htapTxnsPerQuery), stmts: []stmt{queries[i%len(queries)]}})
			}
			p.clients = append(p.clients, reader)
			return p
		}

	case "wan":
		// Small copies of every table; one client; each round issues one
		// operation of each class.
		rows := s.of(2000, 100)
		data := newAnalyticsData(s.of(20000, 1000), s.of(4096, 256), seed)
		rounds := s.of(6, 2)
		w.headline = "read_ms_p50"
		w.hop = wanHop
		w.degree = 4
		w.tpccCfg = tpccConfig(s*3, 2)
		w.tpccCfg.DistrictsPerWarehouse = 2
		w.load = func() []string { return append(kvLoad(rows), data.load()...) }
		w.analyze = analyticsTables
		w.plan = func(seed int64) *plan {
			pg := newPointGen(rows, seed, 0, 1)
			tg := newTPCCGen(w.tpccCfg, []int{0, 1}, seed, 0)
			tg.fixedLines = 2
			ag := newAnalyticsGen(data, seed)
			var ops []op
			for r := 0; r < rounds; r++ {
				ops = append(ops, pg.read(), pg.update(), tg.newOrder(), tg.payment(),
					ag.query(clAgg), ag.query(clTopN), ag.query(clJoinColocated), ag.query(clJoinShuffle))
			}
			kv, tp := kvFinal(rows, []*pointGen{pg}), tpccFinal([]*tpccGen{tg})
			return &plan{clients: [][]op{ops}, final: func(q querier, ok [numClasses]int64, failed int64) error {
				if err := kv(q, failed); err != nil {
					return err
				}
				return tp(q, ok, failed)
			}}
		}

	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	return w, nil
}
