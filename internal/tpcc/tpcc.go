// Package tpcc implements the modified TPC-C workload of the paper's Fig 3
// experiment (§II-A "Performance"): an order-entry schema hash-distributed
// by warehouse, with NewOrder- and Payment-style transactions and a knob
// for the fraction of single-shard transactions (100 % for the SS workload,
// 90 % for MS).
//
// The generator drives a live internal/cluster instance through its SQL
// session API, so it exercises the full GTM-lite / baseline protocol stack:
// routing, escalation, merged snapshots and 2PC. (The Fig 3 throughput
// *curves* are produced by internal/perfsim in virtual time, replaying the
// fabric paths this driver's transactions record; this package also
// validates protocol behaviour — GTM traffic, correctness invariants — on
// the real engine.)
package tpcc

import (
	"fmt"
	"math/rand"

	"repro/internal/cluster"
)

// Config sizes the workload.
type Config struct {
	// Warehouses is the number of warehouses (shard-affinity units).
	Warehouses int
	// DistrictsPerWarehouse, CustomersPerDistrict and Items size the
	// static data (laptop-scale defaults keep tests fast).
	DistrictsPerWarehouse int
	CustomersPerDistrict  int
	Items                 int
	// SingleShardFraction is the probability a transaction stays within
	// its home warehouse (1.0 = the paper's SS mix, 0.9 = MS).
	SingleShardFraction float64
	// NewOrderWeight is the fraction of NewOrder transactions; the rest
	// are Payments (TPC-C uses ~45/43; we use 0.5).
	NewOrderWeight float64
	Seed           int64
	// HotWarehouses, with HotFraction, skews the home-warehouse pick:
	// HotFraction of transactions redirect their home to a uniformly
	// chosen member of HotWarehouses. Both zero-valued by default, which
	// leaves the uniform pick — and its RNG stream — untouched, so
	// existing seeded runs reproduce bit-for-bit.
	HotWarehouses []int
	HotFraction   float64
}

// DefaultConfig returns a small but non-trivial configuration.
func DefaultConfig(warehouses int, ssFraction float64) Config {
	return Config{
		Warehouses:            warehouses,
		DistrictsPerWarehouse: 2,
		CustomersPerDistrict:  20,
		Items:                 50,
		SingleShardFraction:   ssFraction,
		NewOrderWeight:        0.5,
		Seed:                  1,
	}
}

// Stats summarizes a driver run.
type Stats struct {
	Committed   int64
	Aborted     int64
	SingleShard int64
	MultiShard  int64
	// NewOrders / OrderLines count committed NewOrder transactions and the
	// order lines they inserted, so tests can reconcile table growth against
	// driver activity (e.g. across an online expansion).
	NewOrders  int64
	OrderLines int64
}

// InitialBalance is each customer's starting balance; used by the
// conservation invariant.
const InitialBalance = 1000

// Load creates the schema and initial data on the cluster.
func Load(c *cluster.Cluster, cfg Config) error {
	s := c.NewSession()
	ddl := []string{
		"CREATE TABLE warehouse (w_id BIGINT, w_ytd BIGINT, PRIMARY KEY(w_id)) DISTRIBUTE BY HASH(w_id)",
		"CREATE TABLE district (d_w_id BIGINT, d_id BIGINT, d_next_o_id BIGINT, d_ytd BIGINT, PRIMARY KEY(d_w_id, d_id)) DISTRIBUTE BY HASH(d_w_id)",
		"CREATE TABLE customer (c_w_id BIGINT, c_d_id BIGINT, c_id BIGINT, c_balance BIGINT, c_payments BIGINT, PRIMARY KEY(c_w_id, c_d_id, c_id)) DISTRIBUTE BY HASH(c_w_id)",
		"CREATE TABLE stock (s_w_id BIGINT, s_i_id BIGINT, s_qty BIGINT, PRIMARY KEY(s_w_id, s_i_id)) DISTRIBUTE BY HASH(s_w_id)",
		"CREATE TABLE orders (o_w_id BIGINT, o_d_id BIGINT, o_id BIGINT, o_c_id BIGINT, o_lines BIGINT) DISTRIBUTE BY HASH(o_w_id)",
		"CREATE TABLE order_line (ol_w_id BIGINT, ol_d_id BIGINT, ol_o_id BIGINT, ol_i_id BIGINT, ol_qty BIGINT) DISTRIBUTE BY HASH(ol_w_id)",
		"CREATE TABLE item (i_id BIGINT, i_price BIGINT, PRIMARY KEY(i_id)) DISTRIBUTE BY REPLICATION",
	}
	for _, stmt := range ddl {
		if _, err := s.Exec(stmt); err != nil {
			return fmt.Errorf("tpcc: load ddl: %w", err)
		}
	}
	for w := 0; w < cfg.Warehouses; w++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO warehouse VALUES (%d, 0)", w)); err != nil {
			return err
		}
		for d := 0; d < cfg.DistrictsPerWarehouse; d++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO district VALUES (%d, %d, 1, 0)", w, d)); err != nil {
				return err
			}
			for cid := 0; cid < cfg.CustomersPerDistrict; cid++ {
				if _, err := s.Exec(fmt.Sprintf("INSERT INTO customer VALUES (%d, %d, %d, %d, 0)", w, d, cid, InitialBalance)); err != nil {
					return err
				}
			}
		}
		for i := 0; i < cfg.Items; i++ {
			if _, err := s.Exec(fmt.Sprintf("INSERT INTO stock VALUES (%d, %d, 1000)", w, i)); err != nil {
				return err
			}
		}
	}
	for i := 0; i < cfg.Items; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO item VALUES (%d, %d)", i, 1+i%100)); err != nil {
			return err
		}
	}
	return nil
}

// Driver issues transactions against one session.
type Driver struct {
	cfg  Config
	c    *cluster.Cluster
	sess *cluster.Session
	rng  *rand.Rand
	// orderSeq disambiguates order ids across drivers sharing a cluster.
	orderSeq int64
	id       int64

	Stats Stats
}

// NewDriver creates a driver with its own session and RNG stream.
func NewDriver(c *cluster.Cluster, cfg Config, id int64) *Driver {
	return &Driver{
		cfg:  cfg,
		c:    c,
		sess: c.NewSession(),
		rng:  rand.New(rand.NewSource(cfg.Seed + id*7919)),
		id:   id,
	}
}

// Run executes n transactions.
func (d *Driver) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := d.RunOne(); err != nil {
			return err
		}
	}
	return nil
}

// RunOne executes a single randomly-chosen transaction. Write conflicts
// count as aborts, not errors (the driver retries nothing, matching a
// throughput benchmark's abort accounting).
func (d *Driver) RunOne() error {
	home := d.rng.Intn(d.cfg.Warehouses)
	if n := len(d.cfg.HotWarehouses); n > 0 && d.cfg.HotFraction > 0 && d.rng.Float64() < d.cfg.HotFraction {
		home = d.cfg.HotWarehouses[d.rng.Intn(n)]
	}
	remote := home
	multiShard := false
	if d.cfg.Warehouses > 1 && d.rng.Float64() >= d.cfg.SingleShardFraction {
		remote = (home + 1 + d.rng.Intn(d.cfg.Warehouses-1)) % d.cfg.Warehouses
		multiShard = true
	}
	var err error
	lines := 0
	if d.rng.Float64() < d.cfg.NewOrderWeight {
		lines, err = d.newOrder(home, remote)
	} else {
		err = d.payment(home, remote)
	}
	if err != nil {
		d.Stats.Aborted++
		// Write conflicts and duplicate keys are expected under contention;
		// anything else is a real failure.
		return nil
	}
	d.Stats.Committed++
	if lines > 0 {
		d.Stats.NewOrders++
		d.Stats.OrderLines += int64(lines)
	}
	if multiShard || d.sess.LastTxnWasGlobal {
		d.Stats.MultiShard++
	} else {
		d.Stats.SingleShard++
	}
	return nil
}

// payment moves money from a customer to a warehouse; with a remote
// customer (remote != home) the transaction spans two shards.
func (d *Driver) payment(home, remote int) error {
	dist := d.rng.Intn(d.cfg.DistrictsPerWarehouse)
	cust := d.rng.Intn(d.cfg.CustomersPerDistrict)
	amount := 1 + d.rng.Intn(5)

	exec := func(sql string) error {
		_, err := d.sess.Exec(sql)
		return err
	}
	if err := exec("BEGIN"); err != nil {
		return err
	}
	abort := func(err error) error {
		d.sess.Exec("ROLLBACK")
		return err
	}
	if err := exec(fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %d WHERE w_id = %d", amount, home)); err != nil {
		return abort(err)
	}
	if err := exec(fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + %d WHERE d_w_id = %d AND d_id = %d", amount, home, dist)); err != nil {
		return abort(err)
	}
	// The customer may belong to a remote warehouse (the TPC-C remote
	// payment, the paper's source of multi-shard transactions).
	if err := exec(fmt.Sprintf(
		"UPDATE customer SET c_balance = c_balance - %d, c_payments = c_payments + 1 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
		amount, remote, dist, cust)); err != nil {
		return abort(err)
	}
	return exec("COMMIT")
}

// newOrder reads the district, allocates an order id, inserts the order and
// its lines and decrements stock; remote != home makes one line's stock
// update hit another shard.
func (d *Driver) newOrder(home, remote int) (int, error) {
	dist := d.rng.Intn(d.cfg.DistrictsPerWarehouse)
	cust := d.rng.Intn(d.cfg.CustomersPerDistrict)
	nLines := 1 + d.rng.Intn(3)

	exec := func(sql string) error {
		_, err := d.sess.Exec(sql)
		return err
	}
	if err := exec("BEGIN"); err != nil {
		return 0, err
	}
	abort := func(err error) (int, error) {
		d.sess.Exec("ROLLBACK")
		return 0, err
	}
	res, err := d.sess.Exec(fmt.Sprintf("SELECT d_next_o_id FROM district WHERE d_w_id = %d AND d_id = %d", home, dist))
	if err != nil || len(res.Rows) != 1 {
		return abort(fmt.Errorf("district read: %v", err))
	}
	d.orderSeq++
	oid := d.id*1_000_000_000 + d.orderSeq // unique without cross-driver coordination
	if err := exec(fmt.Sprintf("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = %d AND d_id = %d", home, dist)); err != nil {
		return abort(err)
	}
	if err := exec(fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d, %d)", home, dist, oid, cust, nLines)); err != nil {
		return abort(err)
	}
	for l := 0; l < nLines; l++ {
		item := d.rng.Intn(d.cfg.Items)
		stockW := home
		if l == 0 && remote != home {
			stockW = remote
		}
		if err := exec(fmt.Sprintf("INSERT INTO order_line VALUES (%d, %d, %d, %d, 1)", home, dist, oid, item)); err != nil {
			return abort(err)
		}
		if err := exec(fmt.Sprintf("UPDATE stock SET s_qty = s_qty - 1 WHERE s_w_id = %d AND s_i_id = %d", stockW, item)); err != nil {
			return abort(err)
		}
	}
	if err := exec("COMMIT"); err != nil {
		return 0, err
	}
	return nLines, nil
}

// CheckInvariants validates global consistency after a run:
//
//  1. Money conservation: sum(w_ytd) + sum(d_ytd)... — payments move an
//     amount out of a customer balance and add it to BOTH the warehouse and
//     district YTD totals, so sum(balance) + sum(w_ytd) must equal the
//     initial total and sum(w_ytd) must equal sum(d_ytd).
//  2. Order lines: every order's o_lines matches its order_line count.
func CheckInvariants(c *cluster.Cluster, cfg Config) error {
	s := c.NewSession()
	q := func(sql string) (int64, error) {
		res, err := s.Exec(sql)
		if err != nil {
			return 0, err
		}
		if len(res.Rows) != 1 || res.Rows[0][0].IsNull() {
			return 0, nil
		}
		return res.Rows[0][0].Int(), nil
	}
	wYTD, err := q("SELECT sum(w_ytd) FROM warehouse")
	if err != nil {
		return err
	}
	dYTD, err := q("SELECT sum(d_ytd) FROM district")
	if err != nil {
		return err
	}
	balance, err := q("SELECT sum(c_balance) FROM customer")
	if err != nil {
		return err
	}
	customers := int64(cfg.Warehouses * cfg.DistrictsPerWarehouse * cfg.CustomersPerDistrict)
	if wYTD != dYTD {
		return fmt.Errorf("tpcc: warehouse ytd %d != district ytd %d", wYTD, dYTD)
	}
	if balance+wYTD != customers*InitialBalance {
		return fmt.Errorf("tpcc: money not conserved: balances %d + ytd %d != %d",
			balance, wYTD, customers*InitialBalance)
	}
	// Order line counts.
	orders, err := q("SELECT count(*) FROM orders")
	if err != nil {
		return err
	}
	declaredLines, err := q("SELECT sum(o_lines) FROM orders")
	if err != nil {
		return err
	}
	actualLines, err := q("SELECT count(*) FROM order_line")
	if err != nil {
		return err
	}
	if orders > 0 && declaredLines != actualLines {
		return fmt.Errorf("tpcc: order lines mismatch: declared %d, actual %d", declaredLines, actualLines)
	}
	return nil
}
