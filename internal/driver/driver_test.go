package driver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autonomous"
	"repro/internal/cluster"
	"repro/internal/server"
	"repro/internal/tpcc"
	"repro/internal/transport"
	"repro/internal/types"
)

func newStack(t *testing.T, cfg server.Config) (*server.Server, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	s := server.New(c, cfg)
	t.Cleanup(s.Close)
	return s, c
}

func open(t *testing.T, srv *server.Server, opts Options) *DB {
	t.Helper()
	db, err := Open(Fabric(srv), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *DB, sql string, arg ...any) *Result {
	t.Helper()
	res, err := db.Exec(sql, arg...)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestBindNamed(t *testing.T) {
	got, err := BindNamed(
		"INSERT INTO t VALUES (:id, :name, :score, :ok, :missing_quote, :at)",
		map[string]any{
			"id":            42,
			"name":          "o'brien",
			"score":         2.5,
			"ok":            true,
			"missing_quote": nil,
			"at":            time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC),
		})
	if err != nil {
		t.Fatal(err)
	}
	want := "INSERT INTO t VALUES (42, 'o''brien', 2.5, TRUE, NULL, '2026-08-07T12:00:00Z')"
	if got != want {
		t.Errorf("bound = %q\nwant    %q", got, want)
	}
}

func TestBindNamedStruct(t *testing.T) {
	type row struct {
		ID      int64  `db:"id"`
		Name    string `db:"name"`
		Skipped string `db:"-"`
		Untag   bool
	}
	got, err := BindNamed("VALUES (:id, :name, :untag)", row{ID: 7, Name: "x", Untag: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != "VALUES (7, 'x', TRUE)" {
		t.Errorf("bound = %q", got)
	}
	if _, err := BindNamed("VALUES (:nope)", row{}); err == nil {
		t.Error("unknown parameter did not error")
	}
}

func TestBindSkipsQuotedPlaceholders(t *testing.T) {
	got, err := BindNamed("SELECT ':notaparam', :real FROM t", map[string]any{"real": 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != "SELECT ':notaparam', 1 FROM t" {
		t.Errorf("bound = %q", got)
	}
}

// TestBindFloatsStayFloats: a whole-number float binds as a float literal,
// so the server computes with a float, not an integer; NaN and ±Inf, which
// have no literal, fail at bind time naming their parameter.
func TestBindFloatsStayFloats(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{3.0, "3.0"}, {-2.0, "-2.0"}, {float32(4), "4.0"}, {3.5, "3.5"}, {1e21, "1e+21"},
		{types.NewFloat(2), "2.0"},
	} {
		got, err := BindNamed("SELECT :a", map[string]any{"a": tc.v})
		if err != nil || got != "SELECT "+tc.want {
			t.Errorf("%T %v bound as %q (%v), want %q", tc.v, tc.v, got, err, "SELECT "+tc.want)
		}
	}
	for _, v := range []any{math.NaN(), math.Inf(1), math.Inf(-1), types.NewFloat(math.NaN())} {
		if _, err := BindNamed("SELECT :ratio", map[string]any{"ratio": v}); err == nil || !strings.Contains(err.Error(), ":ratio") {
			t.Errorf("binding %v: err = %v, want an error naming :ratio", v, err)
		}
	}

	srv, _ := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE f (id BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	mustExec(t, db, "INSERT INTO f VALUES (1)")
	for _, tc := range []struct{ a, want float64 }{{3.0, 1.5}, {3.5, 1.75}} {
		var got float64
		if err := db.Get(&got, "SELECT :a / 2 FROM f WHERE id = 1", map[string]any{"a": tc.a}); err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("SELECT :a / 2 with a = %v returned %v, want %v", tc.a, got, tc.want)
		}
	}
}

func TestDriverEndToEnd(t *testing.T) {
	srv, _ := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 4})
	if err := db.Ping(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE people (id BIGINT, name VARCHAR(20), score DOUBLE, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	ins := db.Prepare("INSERT INTO people VALUES (:id, :name, :score)")
	for i := 0; i < 10; i++ {
		res, err := ins.Exec(map[string]any{"id": i, "name": fmt.Sprintf("p%d", i), "score": float64(i) / 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("insert %d affected %d", i, res.RowsAffected)
		}
	}

	type person struct {
		ID    int64   `db:"id"`
		Name  string  `db:"name"`
		Score float64 `db:"score"`
	}
	var p person
	if err := db.Get(&p, "SELECT id, name, score FROM people WHERE id = :id", map[string]any{"id": 3}); err != nil {
		t.Fatal(err)
	}
	if p.ID != 3 || p.Name != "p3" || p.Score != 1.5 {
		t.Errorf("row = %+v", p)
	}

	var all []person
	if err := db.Select(&all, "SELECT id, name, score FROM people"); err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Errorf("selected %d rows", len(all))
	}

	var n int64
	if err := db.Get(&n, "SELECT count(*) FROM people"); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("count = %d", n)
	}
	if err := db.Get(&p, "SELECT id, name, score FROM people WHERE id = 99"); !errors.Is(err, ErrNoRows) {
		t.Errorf("missing row: %v", err)
	}
}

// TestTimeValuesCompareInWhere: a bound time.Time travels as a quoted string;
// compared with a TIMESTAMP column it reads as the TIMESTAMP it names, as it
// does when inserted — in a range, an equality and a distribution-key pin.
func TestTimeValuesCompareInWhere(t *testing.T) {
	srv, _ := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE ev (id BIGINT, ts TIMESTAMP, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	mustExec(t, db, "CREATE TABLE evk (ts TIMESTAMP, id BIGINT, PRIMARY KEY(ts)) DISTRIBUTE BY HASH(ts)")
	base := time.Date(2026, 10, 15, 1, 2, 3, 500, time.UTC)
	at := func(i int) time.Time { return base.Add(time.Duration(i) * time.Minute) }
	for i := 0; i < 5; i++ {
		mustExec(t, db, "INSERT INTO ev VALUES (:id, :ts)", map[string]any{"id": i, "ts": at(i)})
		mustExec(t, db, "INSERT INTO evk VALUES (:ts, :id)", map[string]any{"id": i, "ts": at(i)})
	}
	var ids []int64
	if err := db.Select(&ids, "SELECT id FROM ev WHERE ts >= :from AND ts < :to ORDER BY id", map[string]any{"from": at(1), "to": at(3)}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ids) != "[1 2]" {
		t.Errorf("ids in [at(1), at(3)) = %v, want [1 2]", ids)
	}
	for _, table := range []string{"ev", "evk"} {
		var id int64
		if err := db.Get(&id, "SELECT id FROM "+table+" WHERE ts = :at", map[string]any{"at": at(4)}); err != nil || id != 4 {
			t.Errorf("%s: id at(4) = %d (%v), want 4", table, id, err)
		}
	}
}

func TestPreparedStatementsHitServerCache(t *testing.T) {
	srv, _ := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	get := db.Prepare("SELECT v FROM kv WHERE k = :k")
	mustExec(t, db, "INSERT INTO kv VALUES (1, 10)")
	for i := 0; i < 3; i++ {
		var v int64
		if err := get.Get(&v, map[string]any{"k": 1}); err != nil {
			t.Fatal(err)
		}
		if v != 10 {
			t.Fatalf("v = %d", v)
		}
	}
	// The server caches by shape, so every execution after the first hits
	// whatever its bound value; the same key repeated must.
	if hits := db.Stats().StatementsCacheHit; hits < 2 {
		t.Errorf("server cache hits observed by driver = %d, want >= 2", hits)
	}
}

func TestTransactionAffinity(t *testing.T) {
	srv, _ := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 4})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv VALUES (:k, :v)", map[string]any{"k": 1, "v": 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv VALUES (2, 20)"); err != nil {
		t.Fatal(err)
	}
	// Uncommitted writes are visible inside the transaction...
	var n int64
	if err := tx.Get(&n, "SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("in-txn count = %d", n)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.Get(&n, "SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("committed count = %d", n)
	}

	// Rollback leaves nothing.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv VALUES (3, 30)"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := db.Get(&n, "SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count after rollback = %d", n)
	}
	if _, err := tx.Exec("SELECT 1"); err == nil {
		t.Error("exec on finished transaction did not error")
	}
}

func TestQueueFullRetryWithBackoff(t *testing.T) {
	wm := autonomous.NewWorkloadManager(autonomous.SLA{TargetP95: time.Second},
		autonomous.WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1, QueueLimit: 1}, nil)
	srv, _ := newStack(t, server.Config{Manager: wm})
	db := open(t, srv, Options{PoolSize: 1, RetryBase: time.Millisecond, RetryMax: 20, StmtTimeout: 2 * time.Millisecond, Seed: 1})

	// Occupy the slot, park a waiter in the only queue slot, so the
	// driver's statements shed with queue-full until the slot frees.
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	hold := make(chan error, 1)
	go func() { hold <- wm.AdmitCtx(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for wm.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Free the logjam after a few retries have happened.
	go func() {
		time.Sleep(20 * time.Millisecond)
		wm.Release(time.Millisecond) // wakes the parked waiter
		if <-hold == nil {
			wm.Release(time.Millisecond) // the waiter's slot frees the driver
		}
	}()
	if _, err := db.Exec("SELECT 1"); err != nil {
		t.Fatalf("retried exec failed: %v", err)
	}
	if db.Stats().Retries == 0 {
		t.Error("no retries recorded")
	}
}

func TestQueueFullGivesUpAfterRetryMax(t *testing.T) {
	wm := autonomous.NewWorkloadManager(autonomous.SLA{TargetP95: time.Second},
		autonomous.WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1, QueueLimit: 1}, nil)
	srv, _ := newStack(t, server.Config{Manager: wm})
	db := open(t, srv, Options{PoolSize: 1, RetryBase: 100 * time.Microsecond, RetryMax: 2, StmtTimeout: time.Millisecond, Seed: 1})
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	defer wm.Release(time.Millisecond)
	hold := make(chan error, 1)
	go func() { hold <- wm.AdmitCtx(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for wm.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("holder never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := db.Exec("SELECT 1"); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}
	if db.Stats().StatementsShedForGood != 1 {
		t.Errorf("shed-for-good = %d", db.Stats().StatementsShedForGood)
	}
}

func TestRequestLegDropReconnectsAndRetries(t *testing.T) {
	srv, c := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")

	// Drop every client_req frame from existing endpoints: the pooled
	// connection's next statement loses its request leg, redials (a fresh
	// endpoint the fault doesn't match), re-handshakes and retries — the
	// statement still executes exactly once.
	fab := c.Fabric()
	ep1 := transport.Client(1)
	fab.InjectFault(ep1, transport.CN(), transport.Fault{Types: []transport.MsgType{transport.ClientReq}, Drop: true})
	if _, err := db.Exec("INSERT INTO kv VALUES (1, 10)"); err != nil {
		t.Fatalf("exec across request-leg drop: %v", err)
	}
	if db.Stats().Reconnects == 0 {
		t.Error("no reconnect recorded")
	}
	var n int64
	if err := db.Get(&n, "SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("row count = %d, want exactly-once insert", n)
	}

	// Prepared handles survive the reconnect: same template, new session.
	get := db.Prepare("SELECT v FROM kv WHERE k = :k")
	var v int64
	if err := get.Get(&v, map[string]any{"k": 1}); err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Errorf("v = %d", v)
	}
}

func TestResponseLegDropSurfaces(t *testing.T) {
	srv, c := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	ep1 := transport.Client(1)
	c.Fabric().InjectFault(transport.CN(), ep1, transport.Fault{Types: []transport.MsgType{transport.ClientResp}, Drop: true, Count: 1})
	// The insert executed but its response vanished: the driver must NOT
	// retry (it could double-apply DML) — the loss surfaces.
	_, err := db.Exec("INSERT INTO kv VALUES (1, 10)")
	if !errors.Is(err, server.ErrResponseLost) {
		t.Fatalf("err = %v, want ErrResponseLost", err)
	}
	var n int64
	if err := db.Get(&n, "SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("row count = %d (statement should have executed exactly once)", n)
	}
}

func TestSessionEvictionRehandshake(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	srv, _ := newStack(t, server.Config{IdleTimeout: time.Hour, Clock: clock})
	db := open(t, srv, Options{PoolSize: 1, HealthCheckAfter: time.Hour})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")

	// Evict the idle session behind the driver's back.
	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()
	if n := srv.EvictIdle(clock()); n != 1 {
		t.Fatalf("evicted %d", n)
	}
	// The driver re-handshakes transparently on StatusNoSession.
	if _, err := db.Exec("INSERT INTO kv VALUES (1)"); err != nil {
		t.Fatalf("exec after eviction: %v", err)
	}
}

func TestNetDialerTCP(t *testing.T) {
	srv, _ := newStack(t, server.Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)

	db, err := Open(Net(l.Addr().String()), Options{PoolSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	mustExec(t, db, "INSERT INTO kv VALUES (:k, :v)", map[string]any{"k": 1, "v": 10})
	var v int64
	if err := db.Get(&v, "SELECT v FROM kv WHERE k = 1"); err != nil {
		t.Fatal(err)
	}
	if v != 10 {
		t.Errorf("v = %d", v)
	}
}

func TestPoolBoundsAndConcurrency(t *testing.T) {
	srv, _ := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 4})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, err := db.Exec("INSERT INTO kv VALUES (:k, 1)", map[string]any{"k": g*100 + i}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if open := db.Stats().Open; open > 4 {
		t.Errorf("pool opened %d connections, cap 4", open)
	}
	var n int64
	if err := db.Get(&n, "SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	if n != 64 {
		t.Errorf("count = %d", n)
	}
}

func TestScanDatumAndBytes(t *testing.T) {
	res := &Result{
		Columns: []string{"a", "b"},
		Rows:    []types.Row{{types.NewInt(1), types.Null}},
	}
	type row struct {
		A types.Datum `db:"a"`
		B *int        `db:"b"` // wrong-ish but NULL zeroes it
	}
	var r struct {
		A types.Datum `db:"a"`
		B int64       `db:"b"`
	}
	if err := scanOne(&r, res); err != nil {
		t.Fatal(err)
	}
	if r.A.Int() != 1 || r.B != 0 {
		t.Errorf("row = %+v", r)
	}
	_ = row{}
}

// clientReqs counts the client_req frames the fabric delivered since base.
func clientReqs(c *cluster.Cluster, base transport.Stats) int64 {
	return c.Fabric().Stats().Sub(base).Get(transport.ClientReq).Count
}

// TestBeginRidesOnFirstFrame pins the piggybacked BEGIN: Begin sends
// nothing, a transaction that never sent a frame ends without one, and one
// that did costs its statements plus its COMMIT.
func TestBeginRidesOnFirstFrame(t *testing.T) {
	srv, c := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")

	for _, end := range []func(*Tx) error{(*Tx).Commit, (*Tx).Rollback} {
		base := c.Fabric().Stats()
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if n := clientReqs(c, base); n != 0 {
			t.Fatalf("Begin sent %d client_req frames, want 0", n)
		}
		if err := end(tx); err != nil {
			t.Fatal(err)
		}
		if n := clientReqs(c, base); n != 0 {
			t.Fatalf("ending an empty transaction sent %d client_req frames, want 0", n)
		}
		if err := end(tx); err == nil {
			t.Fatal("ending a finished transaction did not error")
		}
	}

	base := c.Fabric().Stats()
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustTx(t, tx, "INSERT INTO kv VALUES (1, 10)")
	mustTx(t, tx, "INSERT INTO kv VALUES (2, 20)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := clientReqs(c, base); n != 3 {
		t.Fatalf("a 2-statement transaction sent %d client_req frames, want 3 (no BEGIN frame)", n)
	}
	if n := kvCount(t, db); n != 2 {
		t.Fatalf("committed count = %d, want 2", n)
	}
}

func mustTx(t *testing.T, tx *Tx, sql string) *Result {
	t.Helper()
	res, err := tx.Exec(sql)
	if err != nil {
		t.Fatalf("tx.Exec(%q): %v", sql, err)
	}
	return res
}

func kvCount(t *testing.T, db *DB) int64 {
	t.Helper()
	var n int64
	if err := db.Get(&n, "SELECT count(*) FROM kv"); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestFailedFirstStatementAbortsTransaction: the first statement's frame
// opened the transaction even though the statement failed, exactly as a
// BEGIN frame followed by the statement would have — every later statement
// is refused until Rollback, which sends its frame and frees the session.
func TestFailedFirstStatementAbortsTransaction(t *testing.T) {
	srv, c := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	mustExec(t, db, "INSERT INTO kv VALUES (1, 10)")

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec("INSERT INTO kv VALUES (1, 11)"); err == nil {
		t.Fatal("duplicate key insert succeeded")
	}
	if _, err := tx.Exec("INSERT INTO kv VALUES (2, 20)"); err == nil || err.Error() != cluster.ErrTxnAborted.Error() {
		t.Fatalf("statement after a failed first statement: %v, want %v", err, cluster.ErrTxnAborted)
	}
	base := c.Fabric().Stats()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := clientReqs(c, base); n != 1 {
		t.Fatalf("Rollback of an opened transaction sent %d frames, want 1", n)
	}
	if n := kvCount(t, db); n != 1 {
		t.Fatalf("count = %d after the aborted transaction, want 1", n)
	}
	// The session is out of the transaction: the next one starts clean.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustTx(t, tx, "INSERT INTO kv VALUES (2, 20)")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := kvCount(t, db); n != 2 {
		t.Fatalf("count = %d, want 2", n)
	}
}

// TestLostBeginFrameRetries: nothing is pinned server-side until the first
// frame executes, so losing its request leg redials and retries like an
// autocommit statement — while the same loss on a later frame surfaces.
func TestLostBeginFrameRetries(t *testing.T) {
	srv, c := newStack(t, server.Config{})
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	drop := func(ep int) {
		c.Fabric().InjectFault(transport.Client(ep), transport.CN(), transport.Fault{
			Types: []transport.MsgType{transport.ClientReq}, Drop: true, Count: 1,
		})
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	drop(1)
	mustTx(t, tx, "INSERT INTO kv VALUES (1, 10)")
	if db.Stats().Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1 (the begin-carrying frame redialed)", db.Stats().Reconnects)
	}
	drop(2) // the redialed connection's endpoint
	if _, err := tx.Exec("INSERT INTO kv VALUES (2, 20)"); !errors.Is(err, server.ErrRequestLost) {
		t.Fatalf("lost request inside the transaction: %v, want ErrRequestLost", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := kvCount(t, db); n != 1 {
		t.Fatalf("count = %d, want 1 (the retried insert once, the lost one never)", n)
	}
}

// TestEvictionBeforeFirstFrameRehandshakes: an idle session evicted between
// Begin and the first statement held no transaction yet, so the statement
// re-handshakes and opens it on the new session.
func TestEvictionBeforeFirstFrameRehandshakes(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	srv, _ := newStack(t, server.Config{IdleTimeout: time.Hour, Clock: clock})
	db := open(t, srv, Options{PoolSize: 1, HealthCheckAfter: time.Hour})
	mustExec(t, db, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Hour)
	mu.Unlock()
	if n := srv.EvictIdle(clock()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}
	mustTx(t, tx, "INSERT INTO kv VALUES (1, 10)")
	mustTx(t, tx, "INSERT INTO kv VALUES (2, 20)")
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := kvCount(t, db); n != 0 {
		t.Fatalf("count = %d after rollback, want 0 (both inserts in the one transaction)", n)
	}
}

// TestFrontDoorMessagesPerStatement pins the fabric messages one operation
// costs through driver.Fabric on a one-warehouse TPC-C schema, so every
// operation is single-shard: two client frames per statement, one request
// (and a fragment's response) per data-node leg, and nothing else — no
// BEGIN frame, no commit or release after an autocommit statement, one
// commit for an explicit transaction's one leg.
func TestFrontDoorMessagesPerStatement(t *testing.T) {
	srv, c := newStack(t, server.Config{})
	if err := tpcc.Load(c, tpcc.DefaultConfig(1, 1)); err != nil {
		t.Fatal(err)
	}
	db := open(t, srv, Options{PoolSize: 1})
	mustExec(t, db, "SELECT 1") // dial and handshake outside the counts

	ops := []struct {
		name string
		txn  bool
		sql  []string
		want int64
	}{
		{"point read", false, []string{"SELECT w_ytd FROM warehouse WHERE w_id = 0"}, 4},
		{"point update", false, []string{"UPDATE warehouse SET w_ytd = w_ytd + 1 WHERE w_id = 0"}, 3},
		{"single-shard Payment", true, []string{
			"UPDATE warehouse SET w_ytd = w_ytd + 3 WHERE w_id = 0",
			"UPDATE district SET d_ytd = d_ytd + 3 WHERE d_w_id = 0 AND d_id = 1",
			"UPDATE customer SET c_balance = c_balance - 3, c_payments = c_payments + 1 WHERE c_w_id = 0 AND c_d_id = 1 AND c_id = 7",
		}, 12},
		{"2-line single-shard New-Order", true, []string{
			"SELECT d_next_o_id FROM district WHERE d_w_id = 0 AND d_id = 1",
			"UPDATE district SET d_next_o_id = d_next_o_id + 1 WHERE d_w_id = 0 AND d_id = 1",
			"INSERT INTO orders VALUES (0, 1, 1, 7, 2)",
			"INSERT INTO order_line VALUES (0, 1, 1, 3, 1)",
			"UPDATE stock SET s_qty = s_qty - 1 WHERE s_w_id = 0 AND s_i_id = 3",
			"INSERT INTO order_line VALUES (0, 1, 1, 4, 1)",
			"UPDATE stock SET s_qty = s_qty - 1 WHERE s_w_id = 0 AND s_i_id = 4",
		}, 25},
	}
	for _, op := range ops {
		base := c.Fabric().Stats()
		if !op.txn {
			mustExec(t, db, op.sql[0])
		} else {
			tx, err := db.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, sql := range op.sql {
				mustTx(t, tx, sql)
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		d := c.Fabric().Stats().Sub(base)
		if got := d.Total(); got != op.want {
			t.Errorf("%s: %d fabric messages, want %d", op.name, got, op.want)
			for _, st := range d {
				if st.Count != 0 {
					t.Logf("  %s: %d", st.Type, st.Count)
				}
			}
		}
	}
}

// TestDriverStatementAllocationCeiling pins what a cached statement
// allocates on the whole path the benchmark's clients take: a Payment's
// customer UPDATE through DB.Exec on the fabric carrier — pool checkout,
// request frame, fabric legs, Server.Handle, execution, reply frame, reply
// decode, Result. The ceiling sits about a tenth above what the code
// reaches, so an allocation added anywhere on that path fails here by name.
func TestDriverStatementAllocationCeiling(t *testing.T) {
	srv, c := newStack(t, server.Config{})
	if err := tpcc.Load(c, tpcc.DefaultConfig(1, 1)); err != nil {
		t.Fatal(err)
	}
	db := open(t, srv, Options{PoolSize: 1})
	texts := make([]string, 256)
	for i := range texts {
		texts[i] = fmt.Sprintf("UPDATE customer SET c_balance = c_balance - %d, c_payments = c_payments + 1 WHERE c_w_id = 0 AND c_d_id = %d AND c_id = %d",
			i%50+1, i%2, i%20)
	}
	next := 0
	var res *Result
	run := func() {
		var err error
		if res, err = db.Exec(texts[next%len(texts)]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	run() // dial, handshake and the miss
	got := testing.AllocsPerRun(200, run)
	if !res.CacheHit || res.RowsAffected != 1 {
		t.Fatalf("last Payment UPDATE: cache hit %v, %d rows", res.CacheHit, res.RowsAffected)
	}
	t.Logf("Payment UPDATE through the driver: %.0f allocations per statement (ceiling %.0f)", got, ceilDriverUpdate)
	if got > ceilDriverUpdate {
		t.Errorf("a cached Payment UPDATE through the driver allocates %.0f times, ceiling %.0f", got, ceilDriverUpdate)
	}
}

// Reached when the ceiling was set: 15 (23 before a cache hit's shape moved
// into session scratch and its frames were decoded in place).
const ceilDriverUpdate float64 = 17
