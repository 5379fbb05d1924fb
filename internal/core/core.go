// Package core is the public face of the FI-MPPDB reproduction: it
// assembles the shared-nothing SQL cluster (internal/cluster), the
// GTM-lite / baseline transaction protocols (internal/gtm,
// internal/txnkit), the learning-based optimizer (internal/planstore) and
// the multi-model engines (internal/multimodel) behind one handle.
//
// Typical use:
//
//	db, _ := core.Open(core.Options{DataNodes: 4})
//	defer db.Close()
//	db.Exec(`CREATE TABLE t (a BIGINT, b TEXT) DISTRIBUTE BY HASH(a)`)
//	db.Exec(`INSERT INTO t VALUES (1, 'hello')`)
//	res, _ := db.Query(`SELECT b FROM t WHERE a = 1`)
//
// Every session is a full coordinator connection: explicit BEGIN/COMMIT
// blocks get GTM-lite semantics (single-shard transactions never touch the
// GTM; cross-shard ones use merged snapshots and 2PC).
package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/htap"
	"repro/internal/multimodel"
	"repro/internal/planstore"
	"repro/internal/rebalance"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/types"
)

// Re-exported types so callers only import core.
type (
	// Session is a coordinator connection.
	Session = cluster.Session
	// Result is one statement's outcome.
	Result = cluster.Result
	// TxnMode selects the distributed transaction protocol.
	TxnMode = cluster.TxnMode
)

// Transaction modes.
const (
	// GTMLite is the paper's protocol (§II-A): single-shard transactions
	// commit locally, multi-shard ones merge global and local snapshots.
	GTMLite = cluster.ModeGTMLite
	// Baseline routes every transaction through the centralized GTM.
	Baseline = cluster.ModeBaseline
)

// Options configures Open.
type Options struct {
	// DataNodes is the number of shared-nothing shards (default 4).
	DataNodes int
	// Mode selects GTM-lite (default) or baseline transaction management.
	Mode TxnMode
	// GTMServiceTime and HopLatency enable the cost model for latency
	// experiments (zero = off, the right setting for functional use).
	GTMServiceTime time.Duration
	HopLatency     time.Duration
	// Learning enables the §II-C loop: capture actual cardinalities after
	// execution and serve them to the planner for later queries.
	Learning bool
	// Clock overrides the statement timestamp source (tests).
	Clock func() time.Time
}

// DB is an embedded FI-MPPDB instance with multi-model engines attached.
type DB struct {
	cluster *cluster.Cluster
	def     *cluster.Session
	repl    *repl.Manager
	srv     *server.Server
	htap    *htap.Manager
}

// Open builds a cluster and attaches the multi-model engines: the ggraph
// and gspatial compilers. It creates no table; a graph's two tables appear
// when CreateGraph declares it, gspatial reads any table with id BIGINT,
// x DOUBLE and y DOUBLE columns, and gtimeseries any query with a
// TIMESTAMP column.
func Open(opts Options) (*DB, error) {
	if opts.DataNodes <= 0 {
		opts.DataNodes = 4
	}
	c, err := cluster.New(cluster.Config{
		DataNodes:      opts.DataNodes,
		Mode:           opts.Mode,
		GTMServiceTime: opts.GTMServiceTime,
		HopLatency:     opts.HopLatency,
	})
	if err != nil {
		return nil, err
	}
	if opts.Clock != nil {
		c.Clock = opts.Clock
	}
	c.Learning = opts.Learning
	multimodel.Attach(c)
	return &DB{cluster: c, def: c.NewSession()}, nil
}

// Close releases the instance: it stops the replication manager's
// goroutines if HA was enabled and the front-door server's reaper if one
// was attached. (The embedded cluster itself holds no external resources.)
func (db *DB) Close() {
	if db.srv != nil {
		db.srv.Close()
	}
	if db.htap != nil {
		db.htap.Close()
	}
	if db.repl != nil {
		db.repl.Close()
	}
}

// Session opens a new coordinator connection.
func (db *DB) Session() *Session { return db.cluster.NewSession() }

// Exec runs one statement on the DB's default session.
func (db *DB) Exec(sql string) (*Result, error) { return db.def.Exec(sql) }

// Query is Exec for reads; it exists for call-site clarity.
func (db *DB) Query(sql string) (*Result, error) { return db.def.Exec(sql) }

// MustExec panics on error — for examples and fixtures.
func (db *DB) MustExec(sql string) *Result {
	res, err := db.def.Exec(sql)
	if err != nil {
		panic(err)
	}
	return res
}

// CreateGraph declares a property graph: the cluster tables
// <name>_vertices and <name>_edges with the given property columns, written
// through the DB's default session (see graph.Create). ggraph('<name>.V()…')
// traverses it.
func (db *DB) CreateGraph(name string, vprops, eprops []types.Column) (*graph.Graph, error) {
	return graph.Create(db.def, name, vprops, eprops)
}

// Cluster exposes the underlying cluster for advanced use (experiments,
// monitoring).
func (db *DB) Cluster() *cluster.Cluster { return db.cluster }

// Analyze refreshes optimizer statistics for a table.
func (db *DB) Analyze(table string) error { return db.cluster.Analyze(table) }

// Vacuum reclaims dead row versions across all shards.
func (db *DB) Vacuum() int { return db.cluster.Vacuum() }

// PlanStore exposes the learning optimizer's captured steps (§II-C).
func (db *DB) PlanStore() *planstore.Store { return db.cluster.Store }

// GTMRequests reports the total number of GTM requests served — the Fig 3
// bottleneck metric.
func (db *DB) GTMRequests() int64 { return db.cluster.GTMStats().Total() }

// AddDataNode registers a fresh shard at runtime and returns its id. The
// new node serves replicated tables immediately but owns no hash buckets
// until a rebalance (see Expand) migrates some onto it.
func (db *DB) AddDataNode() (int, error) { return db.cluster.AddDataNode() }

// Expand grows the cluster to total shards and rebalances hash buckets onto
// the new nodes while queries and transactions keep running — the paper's
// MPP elasticity story. It returns the rebalance progress counters.
func (db *DB) Expand(total int, opt rebalance.Options) (rebalance.Progress, error) {
	r := rebalance.New(db.cluster, opt)
	err := r.ExpandTo(total)
	return r.Progress(), err
}

// EnableHA turns on per-shard replica groups (internal/repl): every
// current primary gets cfg.StandbysPerShard standbys seeded (each over its
// cfg.Links geo latency, when given), commit logs start shipping in
// cfg.Mode with cfg.QuorumAcks sync quorum, and — with cfg.AutoFailover —
// a failure detector promotes a standby of any crashed primary
// automatically. Call it while the workload is quiesced (standby seeding
// drains in-flight writes, like AddDataNode). Close() tears the manager
// down.
func (db *DB) EnableHA(cfg repl.Config) (*repl.Manager, error) {
	if db.repl != nil {
		return nil, errors.New("core: HA already enabled")
	}
	m := repl.NewManager(db.cluster, cfg)
	n := m.Config().StandbysPerShard
	for _, primary := range db.cluster.PrimaryIDs() {
		for i := 0; i < n; i++ {
			spec := repl.ReplicaSpec{Upstream: primary}
			if i < len(cfg.Links) {
				spec.Link = cfg.Links[i]
			}
			if _, err := m.AttachReplica(spec); err != nil {
				m.Close()
				return nil, fmt.Errorf("core: attaching standby %d for dn%d: %w", i, primary, err)
			}
		}
	}
	db.repl = m
	return m, nil
}

// HA returns the replication manager, or nil before EnableHA.
func (db *DB) HA() *repl.Manager { return db.repl }

// EnableHTAP attaches columnar analytical replicas (internal/htap): every
// primary shard gets a columnar mirror seeded under a cluster-wide barrier
// and fed from the commit-log tap from then on. Large scans, aggregates
// and NDP-shaped statements route to the replicas subject to the
// freshness bound in cfg; point reads, DML, and transactions that have
// already written stay on the row primaries. Call it while the workload
// is quiesced (seeding drains in-flight writes, like EnableHA). Close()
// tears the manager down.
func (db *DB) EnableHTAP(cfg htap.Config) (*htap.Manager, error) {
	if db.htap != nil {
		return nil, errors.New("core: HTAP already enabled")
	}
	m, err := htap.Enable(db.cluster, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: enabling HTAP: %w", err)
	}
	db.htap = m
	return m, nil
}

// HTAP returns the analytical-replica manager, or nil before EnableHTAP.
func (db *DB) HTAP() *htap.Manager { return db.htap }

// NewServer attaches the front door (internal/server): client sessions,
// the wire protocol, and per-statement SLA admission control. One server
// per DB; Close tears it down. An attached autopilot's Tick records the
// server's session/cache/admission counters into the information store.
func (db *DB) NewServer(cfg server.Config) (*server.Server, error) {
	if db.srv != nil {
		return nil, errors.New("core: server already attached")
	}
	db.srv = server.New(db.cluster, cfg)
	return db.srv, nil
}

// Server returns the attached front-door server, or nil before NewServer.
func (db *DB) Server() *server.Server { return db.srv }

// Failover promotes a standby of primary (replaying the log tail and
// flipping its buckets), retires the primary, and reparents the group's
// surviving replicas under the promoted node. Requires EnableHA.
func (db *DB) Failover(primary int) (repl.FailoverReport, error) {
	if db.repl == nil {
		return repl.FailoverReport{}, errors.New("core: HA not enabled (see EnableHA)")
	}
	return db.repl.Failover(primary)
}

// ReenrollStandby wipes a retired ex-primary and re-seeds it as a fresh
// standby of upstream, restoring the replica group's redundancy after a
// failover. Requires EnableHA.
func (db *DB) ReenrollStandby(node, upstream int) error {
	if db.repl == nil {
		return errors.New("core: HA not enabled (see EnableHA)")
	}
	return db.repl.ReenrollStandby(node, upstream)
}
