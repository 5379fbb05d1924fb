package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/tpcc"
	"repro/internal/types"
)

// stmt is one SQL statement of an operation and the check its reply must
// pass. Expected answers come from the generator's own rows, never from
// the database.
type stmt struct {
	sql   string
	check func(rows []types.Row, affected int64) error // nil: any successful reply
}

// op is one operation: a single autocommit statement, or a transaction
// whose statements run between BEGIN and COMMIT on one connection.
type op struct {
	class class
	txn   bool
	// after, when positive, holds the operation back until client 0 has
	// completed that many operations (the htap reader's pacing).
	after int64
	stmts []stmt
}

// querier runs one verification query outside the measured path.
type querier func(sql string) ([]types.Row, error)

// plan is one epoch's pre-generated work: the operations of each client
// and the end-of-epoch check against the generator's model. ok counts the
// operations that succeeded, per class.
type plan struct {
	clients [][]op
	final   func(q querier, ok [numClasses]int64, failed int64) error
}

// streamHash digests every statement of the plan in client order.
func (p *plan) streamHash() uint64 {
	h := fnv.New64a()
	for _, ops := range p.clients {
		for i := range ops {
			for _, s := range ops[i].stmts {
				h.Write([]byte(s.sql))
				h.Write([]byte{0})
			}
		}
	}
	return h.Sum64()
}

// subSeed derives an independent generator seed for one stream of a run.
func subSeed(seed int64, parts ...int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, p := range parts {
		h = (h ^ uint64(p+1)) * 0xBF58476D1CE4E5B9
		h ^= h >> 31
	}
	return int64(h >> 1)
}

// --- reply checks ---------------------------------------------------------

func wantAffected(n int64) func([]types.Row, int64) error {
	return func(_ []types.Row, affected int64) error {
		if affected != n {
			return fmt.Errorf("affected %d rows, want %d", affected, n)
		}
		return nil
	}
}

func wantRowCount(n int) func([]types.Row, int64) error {
	return func(rows []types.Row, _ int64) error {
		if len(rows) != n {
			return fmt.Errorf("got %d rows, want %d", len(rows), n)
		}
		return nil
	}
}

// wantValue expects exactly one row whose first column is exact, or, when
// exact is empty, starts with prefix (a key another client may be updating).
func wantValue(exact, prefix string) func([]types.Row, int64) error {
	return func(rows []types.Row, _ int64) error {
		if len(rows) != 1 || len(rows[0]) != 1 {
			return fmt.Errorf("point read returned %d rows, want exactly 1", len(rows))
		}
		got := rows[0][0].Str()
		if exact != "" && got != exact {
			return fmt.Errorf("point read returned %q, want %q", got, exact)
		}
		if !strings.HasPrefix(got, prefix) {
			return fmt.Errorf("point read returned %q, want prefix %q", got, prefix)
		}
		return nil
	}
}

// digest summarises a result set: the row count plus a hash that is the
// wrapping sum of row hashes (order-insensitive) or a positional fold
// (ordered).
type digest struct {
	rows int
	hash uint64
}

func hashInts(vals ...int64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range vals {
		h = (h ^ uint64(v)) * 1099511628211
	}
	h ^= h >> 29
	return h * 0x94D049BB133111EB
}

func (d *digest) add(ordered bool, rowHash uint64) {
	d.rows++
	if ordered {
		d.hash = d.hash*1000003 + rowHash
	} else {
		d.hash += rowHash
	}
}

// wantDigest expects an all-integer result set equal to want.
func wantDigest(ordered bool, want digest) func([]types.Row, int64) error {
	return func(rows []types.Row, _ int64) error {
		var got digest
		vals := make([]int64, 0, 4)
		for _, r := range rows {
			vals = vals[:0]
			for _, d := range r {
				switch d.Kind() {
				case types.KindInt:
					vals = append(vals, d.Int())
				case types.KindFloat:
					vals = append(vals, int64(d.Float()))
				default:
					return fmt.Errorf("result column of kind %s, want a number", d.Kind())
				}
			}
			got.add(ordered, hashInts(vals...))
		}
		if got != want {
			return fmt.Errorf("result of %d rows (hash %x) differs from the generator's %d rows (hash %x)",
				got.rows, got.hash, want.rows, want.hash)
		}
		return nil
	}
}

// --- point: kv reads and updates -----------------------------------------

const (
	zipfS         = 1.1
	updatePercent = 20
)

// pointGen issues Zipfian point reads and updates over kv for one client.
// A client updates only keys congruent to its index modulo the client
// count, so no two clients ever write the same row.
type pointGen struct {
	rows, client, clients int64
	rng                   *rand.Rand
	zipf                  *rand.Zipf
	offset                int64
	seq                   int64
	last                  map[int64]string // values this client wrote
}

func newPointGen(rows int, seed int64, client, clients int) *pointGen {
	rng := rand.New(rand.NewSource(subSeed(seed, client)))
	return &pointGen{
		rows: int64(rows), client: int64(client), clients: int64(clients),
		rng:    rng,
		zipf:   rand.NewZipf(rng, zipfS, 1, uint64(rows-1)),
		offset: subSeed(seed) % int64(rows),
		last:   map[int64]string{},
	}
}

func kvInitial(k int64) string { return fmt.Sprintf("v%d.0", k) }

// key maps a Zipf rank to a key; the multiplier is coprime to every table
// size used (a power of two times a power of five), so hot ranks spread
// over the key space and move with the seed.
func (g *pointGen) key() int64 {
	return (int64(g.zipf.Uint64())*7919 + g.offset) % g.rows
}

func (g *pointGen) read() op {
	k := g.key()
	exact := ""
	if k%g.clients == g.client {
		if v, ok := g.last[k]; ok {
			exact = v
		} else {
			exact = kvInitial(k)
		}
	}
	return op{class: clRead, stmts: []stmt{{
		sql:   fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k),
		check: wantValue(exact, fmt.Sprintf("v%d.", k)),
	}}}
}

func (g *pointGen) update() op {
	k := g.key()
	k += g.client - k%g.clients
	if k >= g.rows {
		k -= g.clients
	}
	g.seq++
	v := fmt.Sprintf("v%d.%d.%d", k, g.client, g.seq)
	g.last[k] = v
	return op{class: clUpdate, stmts: []stmt{{
		sql:   fmt.Sprintf("UPDATE kv SET v = '%s' WHERE k = %d", v, k),
		check: wantAffected(1),
	}}}
}

func (g *pointGen) next() op {
	if g.rng.Intn(100) < updatePercent {
		return g.update()
	}
	return g.read()
}

// kvFinal checks the whole table against the clients' models: every key
// present once, holding the last value its owner wrote. With failed
// operations only the row count and the value prefixes are exact.
func kvFinal(rows int, gens []*pointGen) func(q querier, failed int64) error {
	return func(q querier, failed int64) error {
		got, err := q("SELECT k, v FROM kv")
		if err != nil {
			return err
		}
		if len(got) != rows {
			return fmt.Errorf("kv holds %d rows, want %d", len(got), rows)
		}
		seen := make([]bool, rows)
		for _, r := range got {
			k, v := r[0].Int(), r[1].Str()
			if k < 0 || k >= int64(rows) || seen[k] {
				return fmt.Errorf("kv key %d out of range or duplicated", k)
			}
			seen[k] = true
			want, ok := gens[k%int64(len(gens))].last[k]
			if !ok {
				want = kvInitial(k)
			}
			if failed == 0 && v != want {
				return fmt.Errorf("kv[%d] = %q, want %q", k, v, want)
			}
			if !strings.HasPrefix(v, fmt.Sprintf("v%d.", k)) {
				return fmt.Errorf("kv[%d] = %q belongs to another key", k, v)
			}
		}
		return nil
	}
}

// kvLoad returns the statements that create and fill kv.
func kvLoad(rows int) []string {
	out := []string{"CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT) DISTRIBUTE BY HASH(k)"}
	return append(out, insertBatches("kv", rows, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, '%s')", i, kvInitial(int64(i)))
	})...)
}

// insertBatches renders rows [0,n) as multi-row INSERTs of at most 500 rows.
func insertBatches(table string, n int, row func(sb *strings.Builder, i int)) []string {
	const batch = 500
	var out []string
	for lo := 0; lo < n; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + table + " VALUES ")
		for i := lo; i < lo+batch && i < n; i++ {
			if i > lo {
				sb.WriteByte(',')
			}
			row(&sb, i)
		}
		out = append(out, sb.String())
	}
	return out
}

// --- tpcc: New-Order and Payment scripts ---------------------------------

// tpccGen issues the statement scripts of internal/tpcc for one client
// bound to its home warehouses. Remote warehouses are drawn from the same
// set, so clients never write each other's rows.
type tpccGen struct {
	cfg    tpcc.Config
	homes  []int
	client int64
	rng    *rand.Rand
	seq    int64
	// fixedLines, when positive, fixes every New-Order's order lines (wan: each
	// line is two more round trips, and its median must not hop between
	// line counts); 0 draws 1 to 3 as internal/tpcc does.
	fixedLines int
	// what the client issued, for the end-of-epoch reconciliation
	orders, lines, paid int64
}

func newTPCCGen(cfg tpcc.Config, homes []int, seed int64, client int) *tpccGen {
	return &tpccGen{cfg: cfg, homes: homes, client: int64(client), rng: rand.New(rand.NewSource(subSeed(seed, client)))}
}

// warehouses picks the home warehouse and, for the multi-shard share, a
// different one of the client's warehouses.
func (g *tpccGen) warehouses() (home, remote int) {
	i := g.rng.Intn(len(g.homes))
	home, remote = g.homes[i], g.homes[i]
	if len(g.homes) > 1 && g.rng.Float64() >= g.cfg.SingleShardFraction {
		remote = g.homes[(i+1+g.rng.Intn(len(g.homes)-1))%len(g.homes)]
	}
	return home, remote
}

func (g *tpccGen) next() op {
	if g.rng.Float64() < g.cfg.NewOrderWeight {
		return g.newOrder()
	}
	return g.payment()
}

func (g *tpccGen) payment() op {
	home, remote := g.warehouses()
	dist := g.rng.Intn(g.cfg.DistrictsPerWarehouse)
	cust := g.rng.Intn(g.cfg.CustomersPerDistrict)
	amount := 1 + g.rng.Intn(5)
	g.paid += int64(amount)
	one := wantAffected(1)
	return op{class: clPayment, txn: true, stmts: []stmt{
		{fmt.Sprintf("UPDATE warehouse SET w_ytd = w_ytd + %d WHERE w_id = %d", amount, home), one},
		{fmt.Sprintf("UPDATE district SET d_ytd = d_ytd + %d WHERE d_w_id = %d AND d_id = %d", amount, home, dist), one},
		{fmt.Sprintf("UPDATE customer SET c_balance = c_balance - %d, c_payments = c_payments + 1 WHERE c_w_id = %d AND c_d_id = %d AND c_id = %d",
			amount, remote, dist, cust), one},
	}}
}

func (g *tpccGen) newOrder() op {
	home, remote := g.warehouses()
	dist := g.rng.Intn(g.cfg.DistrictsPerWarehouse)
	cust := g.rng.Intn(g.cfg.CustomersPerDistrict)
	nLines := 1 + g.rng.Intn(3)
	if g.fixedLines > 0 {
		nLines = g.fixedLines
	}
	g.seq++
	g.orders++
	g.lines += int64(nLines)
	oid := (g.client+1)*1_000_000_000 + g.seq
	one := wantAffected(1)
	stmts := []stmt{
		{fmt.Sprintf("SELECT d_next_o_id FROM district WHERE d_w_id = %d AND d_id = %d", home, dist), wantRowCount(1)},
		{fmt.Sprintf("UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = %d AND d_id = %d", home, dist), one},
		{fmt.Sprintf("INSERT INTO orders VALUES (%d, %d, %d, %d, %d)", home, dist, oid, cust, nLines), one},
	}
	for l := 0; l < nLines; l++ {
		item := g.rng.Intn(g.cfg.Items)
		stockW := home
		if l == 0 {
			stockW = remote
		}
		stmts = append(stmts,
			stmt{fmt.Sprintf("INSERT INTO order_line VALUES (%d, %d, %d, %d, 1)", home, dist, oid, item), one},
			stmt{fmt.Sprintf("UPDATE stock SET s_qty = s_qty - 1 WHERE s_w_id = %d AND s_i_id = %d", stockW, item), one},
		)
	}
	return op{class: clNewOrder, txn: true, stmts: stmts}
}

func scalar(q querier, sql string) (int64, error) {
	rows, err := q(sql)
	if err != nil {
		return 0, err
	}
	if len(rows) != 1 || rows[0][0].IsNull() {
		return 0, nil
	}
	if rows[0][0].Kind() == types.KindFloat {
		return int64(rows[0][0].Float()), nil
	}
	return rows[0][0].Int(), nil
}

// tpccFinal reconciles the tables with what the generators issued:
// committed New-Orders equal the orders rows, and, when nothing failed,
// order lines and the money paid match the generators' own sums.
// (tpcc.CheckInvariants runs beside it, on the cluster.)
func tpccFinal(gens []*tpccGen) func(q querier, ok [numClasses]int64, failed int64) error {
	return func(q querier, ok [numClasses]int64, failed int64) error {
		orders, err := scalar(q, "SELECT count(*) FROM orders")
		if err != nil {
			return err
		}
		if orders != ok[clNewOrder] {
			return fmt.Errorf("orders holds %d rows, %d New-Orders committed", orders, ok[clNewOrder])
		}
		if failed > 0 {
			return nil
		}
		var wantLines, wantPaid int64
		for _, g := range gens {
			wantLines += g.lines
			wantPaid += g.paid
		}
		lines, err := scalar(q, "SELECT count(*) FROM order_line")
		if err != nil {
			return err
		}
		paid, err := scalar(q, "SELECT sum(w_ytd) FROM warehouse")
		if err != nil {
			return err
		}
		if lines != wantLines || paid != wantPaid {
			return fmt.Errorf("order_line holds %d rows (want %d), warehouses received %d (want %d)", lines, wantLines, paid, wantPaid)
		}
		return nil
	}
}

// htapQueries are E19's four analytical statements; each check is what the
// fixed part of the schema guarantees whatever the writer has committed.
func htapQueries(cfg tpcc.Config) []stmt {
	w := cfg.Warehouses
	first := func(col int, want int64) func([]types.Row, int64) error {
		return func(rows []types.Row, _ int64) error {
			if len(rows) != 1 || rows[0][col].Int() != want {
				return fmt.Errorf("aggregate over a fixed table: got %v, want count %d", rows, want)
			}
			return nil
		}
	}
	return []stmt{
		{"SELECT count(*), sum(s_qty) FROM stock", first(0, int64(w*cfg.Items))},
		{"SELECT o_w_id, count(*), sum(o_lines) FROM orders GROUP BY o_w_id ORDER BY o_w_id", func(rows []types.Row, _ int64) error {
			if len(rows) > w {
				return fmt.Errorf("orders grouped into %d warehouses, only %d exist", len(rows), w)
			}
			return nil
		}},
		{"SELECT sum(c_balance), sum(c_payments), count(*) FROM customer", first(2, int64(w*cfg.DistrictsPerWarehouse*cfg.CustomersPerDistrict))},
		{"SELECT d_w_id, sum(d_ytd) FROM district GROUP BY d_w_id ORDER BY d_w_id", wantRowCount(w)},
	}
}

// --- analytics: columnar scans, sorts and distributed joins --------------

const (
	factGroups = 16
	dimRows    = 64
)

// analyticsData is the generator's copy of the analytical tables:
// facts(k, grp, v) with k = row index, and E20's star schema
// jfact(k, d, v) / jfact2(k, w) / jdim(id, tag). v is a seeded permutation
// of the row indexes in both fact tables, so every range and threshold
// predicate selects a known number of rows and ORDER BY v has no ties.
type analyticsData struct {
	grp, v []int64 // facts
	jv     []int64 // jfact.v; jfact.d = k % dimRows, jfact2.w = 2k, jdim.tag = 10·id
	joinLT int64   // the joins' "f.v < joinLT" threshold
	top    [factGroups][]int64
	// answers that do not depend on a query's literals
	fixed [numClasses]digest
}

func newAnalyticsData(factRows, joinRows int, seed int64) *analyticsData {
	d := &analyticsData{grp: make([]int64, factRows), v: make([]int64, factRows), jv: make([]int64, joinRows)}
	off := subSeed(seed, 1) % int64(factRows)
	for i := range d.v {
		d.grp[i] = int64((uint64(i)*2654435761 + uint64(off)) >> 9 % factGroups)
		d.v[i] = (int64(i)*7919 + off) % int64(factRows)
	}
	joff := subSeed(seed, 2) % int64(joinRows)
	for i := range d.jv {
		d.jv[i] = (int64(i)*7919 + joff) % int64(joinRows) // 7919 is odd: a bijection on a power of two
	}
	d.joinLT = int64(joinRows) / 82 // 400 of 32768, E20's selectivity
	if d.joinLT < 8 {
		d.joinLT = 8
	}
	// top-10 keys of every group by v descending, once per data set
	byGroup := make([][]int64, factGroups)
	for k, g := range d.grp {
		byGroup[g] = append(byGroup[g], int64(k))
	}
	for g, ks := range byGroup {
		sort.Slice(ks, func(a, b int) bool { return d.v[ks[a]] > d.v[ks[b]] })
		if len(ks) > 10 {
			ks = ks[:10]
		}
		d.top[g] = ks
	}

	var count, sum [factGroups]int64
	for k, grp := range d.grp {
		count[grp]++
		sum[grp] += d.v[k]
	}
	for grp := range count {
		if count[grp] > 0 {
			d.fixed[clAgg].add(false, hashInts(int64(grp), count[grp], sum[grp]))
		}
	}
	for k, v := range d.jv {
		if v >= d.joinLT {
			continue
		}
		dd := k % dimRows
		d.fixed[clJoinColocated].add(false, hashInts(int64(k), v, int64(2*k)))
		d.fixed[clJoinBcast].add(false, hashInts(v, int64(dd)*10))
		// f.d = g.w matches jfact2 row d/2 when d is even and that row exists.
		if dd%2 == 0 && dd/2 < joinRows {
			d.fixed[clJoinShuffle].add(false, hashInts(v, int64(dd)))
		}
	}
	return d
}

// load returns the statements that create, fill and analyze the tables.
func (d *analyticsData) load() []string {
	out := []string{
		"CREATE TABLE facts (k BIGINT, grp BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN",
		"CREATE TABLE jfact (k BIGINT, d BIGINT, v BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN",
		"CREATE TABLE jfact2 (k BIGINT, w BIGINT) DISTRIBUTE BY HASH(k) USING COLUMN",
		"CREATE TABLE jdim (id BIGINT, tag BIGINT) DISTRIBUTE BY HASH(id)",
	}
	out = append(out, insertBatches("facts", len(d.v), func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %d, %d)", i, d.grp[i], d.v[i])
	})...)
	out = append(out, insertBatches("jfact", len(d.jv), func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %d, %d)", i, i%dimRows, d.jv[i])
	})...)
	out = append(out, insertBatches("jfact2", len(d.jv), func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %d)", i, i*2)
	})...)
	return append(out, insertBatches("jdim", dimRows, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d, %d)", i, i*10)
	})...)
}

var analyticsTables = []string{"facts", "jfact", "jfact2", "jdim"}

// analyticsGen issues analytical queries with seeded literals and the
// answer computed from analyticsData.
type analyticsGen struct {
	d   *analyticsData
	rng *rand.Rand
}

func newAnalyticsGen(d *analyticsData, seed int64) *analyticsGen {
	return &analyticsGen{d: d, rng: rand.New(rand.NewSource(subSeed(seed, 3)))}
}

// keyRange picks a range of width rows/div inside facts.
func (g *analyticsGen) keyRange(div int) (lo, hi int) {
	n := len(g.d.v)
	width := n / div
	lo = g.rng.Intn(n - width + 1)
	return lo, lo + width
}

func (g *analyticsGen) query(c class) op {
	d := g.d
	var sql string
	want := d.fixed[c]
	ordered := false
	switch c {
	case clAgg:
		sql = "SELECT grp, count(*), sum(v) FROM facts GROUP BY grp"
	case clFilter:
		lo, hi := g.keyRange(100)
		sql = fmt.Sprintf("SELECT k, v FROM facts WHERE k >= %d AND k < %d", lo, hi)
		for k := lo; k < hi; k++ {
			want.add(false, hashInts(int64(k), d.v[k]))
		}
	case clTopN:
		grp := g.rng.Intn(factGroups)
		sql = fmt.Sprintf("SELECT k, v FROM facts WHERE grp = %d ORDER BY v DESC LIMIT 10", grp)
		ordered = true
		for _, k := range d.top[grp] {
			want.add(true, hashInts(k, d.v[k]))
		}
	case clSort:
		lo, hi := g.keyRange(10)
		sql = fmt.Sprintf("SELECT k, v FROM facts WHERE k >= %d AND k < %d ORDER BY v", lo, hi)
		ordered = true
		ks := make([]int64, 0, hi-lo)
		for k := lo; k < hi; k++ {
			ks = append(ks, int64(k))
		}
		sort.Slice(ks, func(a, b int) bool { return d.v[ks[a]] < d.v[ks[b]] })
		for _, k := range ks {
			want.add(true, hashInts(k, d.v[k]))
		}
	case clJoinColocated:
		sql = fmt.Sprintf("SELECT f.k, f.v, g.w FROM jfact f, jfact2 g WHERE f.k = g.k AND f.v < %d", d.joinLT)
	case clJoinBcast:
		sql = fmt.Sprintf("SELECT f.v, d.tag FROM jfact f, jdim d WHERE f.d = d.id AND f.v < %d", d.joinLT)
	case clJoinShuffle:
		sql = fmt.Sprintf("SELECT f.v, g.w FROM jfact f, jfact2 g WHERE f.d = g.w AND f.v < %d", d.joinLT)
	default:
		panic("analyticsGen: not an analytical class: " + c.String())
	}
	return op{class: c, stmts: []stmt{{sql: sql, check: wantDigest(ordered, want)}}}
}
