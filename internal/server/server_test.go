package server

import (
	"bytes"
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
	"repro/internal/graph"
	"repro/internal/multimodel"
	"repro/internal/sqlx"
	"repro/internal/transport"
	"repro/internal/types"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *cluster.Cluster) {
	t.Helper()
	c, err := cluster.New(cluster.Config{DataNodes: 2, Mode: cluster.ModeGTMLite})
	if err != nil {
		t.Fatal(err)
	}
	s := New(c, cfg)
	t.Cleanup(s.Close)
	return s, c
}

// roundtrip drives one request through Handle and decodes the response.
func roundtrip(t *testing.T, s *Server, q *Request) *Response {
	t.Helper()
	p, err := DecodeResponse(s.Handle(EncodeRequest(q)))
	if err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return p
}

func hello(t *testing.T, s *Server, pri autonomous.Priority) uint64 {
	t.Helper()
	p := roundtrip(t, s, &Request{Op: OpHello, Priority: uint8(pri)})
	if p.Status != StatusOK || p.Session == 0 {
		t.Fatalf("handshake: status=%d err=%q", p.Status, p.Err)
	}
	return p.Session
}

func exec(t *testing.T, s *Server, sess uint64, sql string) *Response {
	t.Helper()
	p := roundtrip(t, s, &Request{Op: OpExec, Session: sess, SQL: sql})
	if p.Status != StatusOK {
		t.Fatalf("exec %q: status=%d err=%q", sql, p.Status, p.Err)
	}
	return p
}

func TestHandshakeExecRoundtrip(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	for i := 0; i < 5; i++ {
		p := exec(t, s, sess, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i*10))
		if p.RowsAffected != 1 {
			t.Fatalf("insert affected %d rows", p.RowsAffected)
		}
	}
	p := exec(t, s, sess, "SELECT count(*), sum(v) FROM kv")
	if len(p.Rows) != 1 || p.Rows[0][0].Int() != 5 || p.Rows[0][1].Int() != 100 {
		t.Fatalf("select rows = %v", p.Rows)
	}
	st := s.Stats()
	if st.SessionsOpen != 1 || st.SessionsOpened != 1 {
		t.Errorf("sessions open=%d opened=%d", st.SessionsOpen, st.SessionsOpened)
	}
	if st.Statements != 7 {
		t.Errorf("statements = %d, want 7", st.Statements)
	}
}

func TestStmtCacheHitsOnRepeats(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	q := "SELECT count(*) FROM kv"
	if p := exec(t, s, sess, q); p.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	// Same statement, different case and spacing: still one cache entry.
	if p := exec(t, s, sess, "select   COUNT(*)\n\tFROM kv"); !p.CacheHit {
		t.Fatal("normalized repeat missed the statement cache")
	}
	if p := exec(t, s, sess, q); !p.CacheHit {
		t.Fatal("verbatim repeat missed the statement cache")
	}
	st := s.Stats()
	if st.CacheHits != 2 || st.CacheMisses != 2 { // CREATE + first SELECT
		t.Errorf("cache hits=%d misses=%d", st.CacheHits, st.CacheMisses)
	}

	// A second session has its own cache: no cross-session hits.
	sess2 := hello(t, s, autonomous.PriorityNormal)
	if p := exec(t, s, sess2, q); p.CacheHit {
		t.Error("statement cache leaked across sessions")
	}
}

func TestStmtCacheEviction(t *testing.T) {
	s, _ := newTestServer(t, Config{StmtCacheSize: 2})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	exec(t, s, sess, "SELECT count(*) FROM kv") // evicts CREATE
	exec(t, s, sess, "SELECT sum(v) FROM kv")   // evicts nothing yet (cap 2)
	if p := exec(t, s, sess, "SELECT count(*) FROM kv"); !p.CacheHit {
		t.Error("recently used statement was evicted")
	}
	if p := exec(t, s, sess, "CREATE TABLE kv2 (k BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)"); p.CacheHit {
		t.Error("evicted statement reported a cache hit")
	}
}

func TestNormalizeSQL(t *testing.T) {
	cases := []struct{ in, want string }{
		{"SELECT * FROM t", "select * from t"},
		{"select\t*\n  from   t", "select * from t"},
		{"  SELECT 1  ", "select $I"},
		// Value literals are lifted, whatever is inside them.
		{"SELECT 'It''s UPPER  case'", "select $S"},
		{"select 'a'||'B'", "select $S||$S"},
		{"SELECT v FROM kv WHERE k = 5 AND f < 2.5e3 AND s = 'x'", "select v from kv where k = $I and f < $F and s = $S"},
		// Comments are whitespace, exactly as sqlx's lexer reads them.
		{"SELECT 1 -- c\n, 2", "select $I , $I"},
		{"SELECT 1 -- c , 2", "select $I"},
		{"SELECT/* x */1/**/,2 /* open", "select $I ,$I"},
		{"SELECT '--' , '/*' -- tail", "select $S , $S"},
		// Quoted identifiers keep their case, spacing and comment markers.
		{`SELECT "Col  A", "--x" FROM T`, `select "Col  A", "--x" from t`},
		// Structural literals stay in the key.
		{"SELECT a FROM t WHERE b = 1 ORDER BY 2, a+1 DESC LIMIT 10 OFFSET 5", "select a from t where b = $I order by 2, a+1 desc limit 10 offset 5"},
		{"SELECT g, count(*) FROM t GROUP BY 1 HAVING count(*) > 3", "select g, count(*) from t group by 1 having count(*) > $I"},
		{"SELECT (SELECT a FROM u ORDER BY 1 LIMIT 1) + 7", "select (select a from u order by 1 limit 1) + $I"},
		{"SELECT now() - INTERVAL '1 hour', 'x'", "select now() - interval '1 hour', $S"},
		{"CREATE TABLE t (k BIGINT, v VARCHAR(10))", "create table t (k bigint, v varchar(10))"},
		{"SELECT 99999999999999999999", "select 99999999999999999999"},
		{"SELECT 'unterminated", "select 'unterminated"},
	}
	for _, c := range cases {
		if got := NormalizeSQL(c.in); got != c.want {
			t.Errorf("NormalizeSQL(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// A literal's kind is part of the shape; a structural literal's value is.
	distinct := [][]string{
		{"SELECT 1", "SELECT 1.0", "SELECT '1'"},
		{"SELECT a FROM t LIMIT 10", "SELECT a FROM t LIMIT 20"},
		{"SELECT a, b FROM t ORDER BY 1", "SELECT a, b FROM t ORDER BY 2"},
		{"SELECT 1", "SELECT $I", "SELECT '$I'", `SELECT "$I"`},
	}
	for _, group := range distinct {
		seen := map[string]string{}
		for _, sql := range group {
			key := NormalizeSQL(sql)
			if other, dup := seen[key]; dup {
				t.Errorf("%q and %q share the key %q", other, sql, key)
			}
			seen[key] = sql
		}
	}
	// Texts that differ in lifted values alone share a key, and the values
	// come out in text order.
	a, b := sqlx.Normalize("UPDATE kv SET v = 'x' WHERE k = 5"), sqlx.Normalize("update kv set v = 'It''s' where k = 42")
	if a.Key != b.Key {
		t.Errorf("one shape, two keys: %q and %q", a.Key, b.Key)
	}
	if len(b.Params) != 2 || b.Params[0].Str() != "It's" || b.Params[1].Int() != 42 {
		t.Errorf("lifted values = %v", b.Params)
	}
}

// TestStmtCacheKeysFollowTheLexer is the regression test for the cache-key
// collision: a line comment used to survive newline collapsing, so a
// statement whose comment ends at a newline and one whose comment runs to
// the end shared a key — and the second was served the first one's parse
// tree.
func TestStmtCacheKeysFollowTheLexer(t *testing.T) {
	two, one := "SELECT 1 -- c\n, 2", "SELECT 1 -- c , 2"
	if NormalizeSQL(two) == NormalizeSQL(one) {
		t.Fatalf("%q and %q share the cache key %q", two, one, NormalizeSQL(one))
	}
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	if p := exec(t, s, sess, two); len(p.Columns) != 2 {
		t.Fatalf("%q returned %d columns, want 2", two, len(p.Columns))
	}
	if p := exec(t, s, sess, one); len(p.Columns) != 1 || p.CacheHit {
		t.Fatalf("%q returned %d columns (cache hit %v), want 1 from its own parse", one, len(p.Columns), p.CacheHit)
	}
}

func TestTxnAffinityAcrossRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	exec(t, s, sess, "BEGIN")
	exec(t, s, sess, "INSERT INTO kv VALUES (1, 10)")
	exec(t, s, sess, "INSERT INTO kv VALUES (2, 20)")
	exec(t, s, sess, "COMMIT")
	p := exec(t, s, sess, "SELECT count(*) FROM kv")
	if p.Rows[0][0].Int() != 2 {
		t.Fatalf("committed rows = %v", p.Rows)
	}

	// A rolled-back transaction leaves nothing behind.
	exec(t, s, sess, "BEGIN")
	exec(t, s, sess, "INSERT INTO kv VALUES (3, 30)")
	exec(t, s, sess, "ROLLBACK")
	p = exec(t, s, sess, "SELECT count(*) FROM kv")
	if p.Rows[0][0].Int() != 2 {
		t.Fatalf("rows after rollback = %v", p.Rows)
	}
}

func TestCloseAbandonedTxnRollsBack(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	exec(t, s, sess, "BEGIN")
	exec(t, s, sess, "INSERT INTO kv VALUES (1, 10)")
	if p := roundtrip(t, s, &Request{Op: OpClose, Session: sess}); p.Status != StatusOK {
		t.Fatalf("close: %q", p.Err)
	}
	sess2 := hello(t, s, autonomous.PriorityNormal)
	p := exec(t, s, sess2, "SELECT count(*) FROM kv")
	if p.Rows[0][0].Int() != 0 {
		t.Fatalf("abandoned txn leaked rows: %v", p.Rows)
	}
}

func TestNoSessionStatus(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	p := roundtrip(t, s, &Request{Op: OpExec, Session: 999, SQL: "SELECT 1"})
	if p.Status != StatusNoSession {
		t.Fatalf("status = %d, want StatusNoSession", p.Status)
	}
}

func TestSessionLimit(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxSessions: 2})
	hello(t, s, autonomous.PriorityNormal)
	hello(t, s, autonomous.PriorityNormal)
	p := roundtrip(t, s, &Request{Op: OpHello})
	if p.Status != StatusError {
		t.Fatalf("third handshake: status=%d", p.Status)
	}
}

func TestIdleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	s, _ := newTestServer(t, Config{IdleTimeout: time.Hour, Clock: clock})
	idle := hello(t, s, autonomous.PriorityNormal)
	busy := hello(t, s, autonomous.PriorityNormal)
	inTxn := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, inTxn, "BEGIN")

	advance(30 * time.Minute)
	exec(t, s, busy, "SELECT 1")
	advance(31 * time.Minute)
	if n := s.EvictIdle(clock()); n != 1 {
		t.Fatalf("evicted %d sessions, want 1 (idle only)", n)
	}
	if p := roundtrip(t, s, &Request{Op: OpExec, Session: idle, SQL: "SELECT 1"}); p.Status != StatusNoSession {
		t.Errorf("evicted session status = %d", p.Status)
	}
	exec(t, s, busy, "SELECT 1") // survived
	// The in-txn session is never evicted, even when long idle (the busy
	// one, now idle past the timeout, is).
	advance(2 * time.Hour)
	if n := s.EvictIdle(clock()); n != 1 {
		t.Fatalf("second sweep evicted %d sessions, want 1 (busy only)", n)
	}
	exec(t, s, inTxn, "COMMIT")
	if got := s.Stats().SessionsEvicted; got != 2 {
		t.Errorf("evicted counter = %d", got)
	}
}

func TestAdmissionQueueFullStatus(t *testing.T) {
	wm := autonomous.NewWorkloadManager(autonomous.SLA{TargetP95: time.Second},
		autonomous.WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1, QueueLimit: 1}, nil)
	s, _ := newTestServer(t, Config{Manager: wm})
	sess := hello(t, s, autonomous.PriorityNormal)

	// Occupy the only slot, then park one waiter in the only queue slot.
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	queued := make(chan *Response, 1)
	go func() {
		queued <- roundtrip(t, s, &Request{Op: OpExec, Session: sess, SQL: "SELECT 1", TimeoutMillis: 5000})
	}()
	deadline := time.Now().Add(5 * time.Second)
	for wm.QueueLen() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(100 * time.Microsecond)
	}

	// Queue full, same priority: the arrival is shed.
	sess2 := hello(t, s, autonomous.PriorityNormal)
	if p := roundtrip(t, s, &Request{Op: OpExec, Session: sess2, SQL: "SELECT 1"}); p.Status != StatusQueueFull {
		t.Fatalf("status = %d err=%q, want StatusQueueFull", p.Status, p.Err)
	}

	// Freeing the slot lets the queued statement run.
	wm.Release(time.Millisecond)
	if p := <-queued; p.Status != StatusOK {
		t.Fatalf("queued exec: status=%d err=%q", p.Status, p.Err)
	}
}

func TestAdmissionTimeoutStatus(t *testing.T) {
	wm := autonomous.NewWorkloadManager(autonomous.SLA{TargetP95: time.Second},
		autonomous.WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1}, nil)
	s, _ := newTestServer(t, Config{Manager: wm})
	sess := hello(t, s, autonomous.PriorityNormal)
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	p := roundtrip(t, s, &Request{Op: OpExec, Session: sess, SQL: "SELECT 1", TimeoutMillis: 5})
	if p.Status != StatusError || p.Err != errAdmissionTimeout.Error() {
		t.Fatalf("status=%d err=%q, want admission timeout", p.Status, p.Err)
	}
	if wm.QueueLen() != 0 {
		t.Fatal("timed-out statement leaked a queue slot")
	}
	wm.Release(time.Millisecond)
}

func TestDispatchAccountsAndInjectsFaults(t *testing.T) {
	s, c := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	ep := s.NewClientEndpoint()

	req := EncodeRequest(&Request{Op: OpExec, Session: sess, SQL: "SELECT 1"})
	raw, err := s.Dispatch(ep, req)
	if err != nil {
		t.Fatal(err)
	}
	if p, err := DecodeResponse(raw); err != nil || p.Status != StatusOK {
		t.Fatalf("dispatch response: %v %+v", err, p)
	}
	// Client traffic is visible in the fabric accounting.
	fab := c.Fabric()
	if n := fab.Stats()[transport.ClientReq].Count; n != 1 {
		t.Errorf("client_req count = %d", n)
	}
	if n := fab.Stats()[transport.ClientResp].Count; n != 1 {
		t.Errorf("client_resp count = %d", n)
	}

	// A dropped request leg surfaces as ErrRequestLost (never executed).
	fab.InjectFault(ep, transport.CN(), transport.Fault{Drop: true, Count: 1})
	if _, err := s.Dispatch(ep, req); !errors.Is(err, ErrRequestLost) {
		t.Fatalf("request-leg drop: %v", err)
	}
	// A dropped response leg surfaces as ErrResponseLost (may have executed).
	fab.InjectFault(transport.CN(), ep, transport.Fault{Drop: true, Count: 1})
	if _, err := s.Dispatch(ep, req); !errors.Is(err, ErrResponseLost) {
		t.Fatalf("response-leg drop: %v", err)
	}
	fab.ClearFaults()
	if _, err := s.Dispatch(ep, req); err != nil {
		t.Fatalf("after clearing faults: %v", err)
	}
}

func TestServeTCPRoundtrip(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(l)

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(q *Request) *Response {
		t.Helper()
		if err := WriteFrame(conn, EncodeRequest(q)); err != nil {
			t.Fatal(err)
		}
		raw, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		p, err := DecodeResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := send(&Request{Op: OpHello})
	if p.Status != StatusOK || p.Session == 0 {
		t.Fatalf("tcp handshake: %+v", p)
	}
	sess := p.Session
	if p := send(&Request{Op: OpExec, Session: sess, SQL: "CREATE TABLE kv (k BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)"}); p.Status != StatusOK {
		t.Fatalf("tcp create: %q", p.Err)
	}
	if p := send(&Request{Op: OpExec, Session: sess, SQL: "INSERT INTO kv VALUES (7)"}); p.Status != StatusOK || p.RowsAffected != 1 {
		t.Fatalf("tcp insert: %+v", p)
	}
	if p := send(&Request{Op: OpExec, Session: sess, SQL: "SELECT k FROM kv"}); len(p.Rows) != 1 || p.Rows[0][0].Int() != 7 {
		t.Fatalf("tcp select: %+v", p)
	}

	// Closing the connection closes its session.
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().SessionsOpen != 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not closed with its connection")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestProtocolRoundtripDatums(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE mixed (id BIGINT, name VARCHAR(20), score DOUBLE, ok BOOLEAN, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	exec(t, s, sess, "INSERT INTO mixed VALUES (1, 'it''s', 2.5, TRUE)")
	p := exec(t, s, sess, "SELECT id, name, score, ok FROM mixed")
	row := p.Rows[0]
	if row[0].Int() != 1 || row[1].Str() != "it's" || row[2].Float() != 2.5 || !row[3].Bool() {
		t.Fatalf("row = %v", row)
	}
	if len(p.Columns) != 4 {
		t.Fatalf("columns = %v", p.Columns)
	}
}

// TestDecodeResponseRejectsCountsBeyondTheFrame is the regression test for
// the decode bomb: a 34-byte frame announcing one row of 2^31-1 datums
// used to make the client allocate 128 GiB and die. Counts the remaining
// bytes cannot hold are an error, found without allocating for them.
func TestDecodeResponseRejectsCountsBeyondTheFrame(t *testing.T) {
	frame := EncodeResponse(&Response{})
	frame = frame[:len(frame)-4]               // drop nrows = 0
	frame = types.AppendU32(frame, 1)          // nrows = 1
	frame = types.AppendU32(frame, 0x7fffffff) // arity
	if len(frame) != 34 {
		t.Fatalf("frame is %d bytes, want 34", len(frame))
	}
	start := time.Now()
	if _, err := DecodeResponse(frame); err == nil {
		t.Fatal("oversized arity decoded without error")
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Errorf("rejecting the frame took %v", took)
	}
	for _, counts := range [][2]uint32{{0x7fffffff, 0}, {0, 0x7fffffff}} {
		frame = frame[:22] // through RowsAffected
		frame = types.AppendU32(types.AppendU32(frame, counts[0]), counts[1])
		if _, err := DecodeResponse(frame); err == nil {
			t.Errorf("ncols=%d nrows=%d decoded without error", counts[0], counts[1])
		}
	}
}

// TestWireCodecKeepsSpecialValues: the values a datum-layout change loses
// first — float bit patterns, integer extremes, empty and non-UTF-8 BYTEA —
// cross the frame codec bit for bit.
func TestWireCodecKeepsSpecialValues(t *testing.T) {
	row := types.Row{
		types.NewFloat(math.Float64frombits(0x7ff8000000000123)), // a NaN with payload bits
		types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewInt(math.MaxInt64), types.NewInt(math.MinInt64),
		types.NewBytes(nil), types.NewBytes([]byte{0xff, 0x00, 0x80}), types.NewString(""), types.Null,
	}
	p, err := DecodeResponse(EncodeResponse(&Response{Rows: []types.Row{row}}))
	if err != nil || len(p.Rows) != 1 || len(p.Rows[0]) != len(row) {
		t.Fatalf("decoded %+v, %v", p, err)
	}
	for i, want := range row {
		got := p.Rows[0][i]
		same := got.Kind() == want.Kind()
		switch {
		case !same:
		case want.Kind() == types.KindFloat:
			same = math.Float64bits(got.Float()) == math.Float64bits(want.Float())
		case want.Kind() == types.KindBytes:
			same = bytes.Equal(got.Bytes(), want.Bytes())
		default:
			same = types.Equal(got, want)
		}
		if !same {
			t.Errorf("datum %d: %v (%v) arrived as %v (%v)", i, want, want.Kind(), got, got.Kind())
		}
	}
}

// handleAllocs measures allocations per Server.Handle of an OpExec frame:
// 256 texts of one shape (text(i) for i in 1..256) are encoded beforehand,
// the first is executed as the miss, and every later one must be served from
// the statement cache.
func handleAllocs(t *testing.T, s *Server, sess uint64, text func(i int) string) float64 {
	t.Helper()
	frames := make([][]byte, 256)
	for i := range frames {
		frames[i] = EncodeRequest(&Request{Op: OpExec, Session: sess, SQL: text(i + 1)})
	}
	next := 0
	var last []byte
	run := func() {
		last = s.Handle(frames[next%len(frames)])
		next++
	}
	run() // the miss
	allocs := testing.AllocsPerRun(200, run)
	if p, err := DecodeResponse(last); err != nil || p.Status != StatusOK || !p.CacheHit {
		t.Fatalf("%q: status %d, cache hit %v, err %v %q", text(next), p.Status, p.CacheHit, err, p.Err)
	}
	return allocs
}

// TestCachedStatementAllocationCeilings pins what a cached one-row statement
// allocates on its way through Server.Handle — decode, shape, admission,
// routing, legs, snapshot, fragment, commit, encode. The ceilings sit about a
// tenth above what the code reaches, so a change that adds an allocation per
// statement fails here, by name, before it shows as a fraction of a percent
// in the benchmark's alloc_kb_per_op.
func TestCachedStatementAllocationCeilings(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT) DISTRIBUTE BY HASH(k)")
	for i := 0; i < 300; i++ {
		exec(t, s, sess, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'v%d')", i, i))
	}
	for _, c := range []struct {
		name    string
		text    func(i int) string
		ceiling float64
	}{
		{"point SELECT", func(i int) string { return fmt.Sprintf("SELECT v FROM kv WHERE k = %d", i) }, ceilSelect},
		{"point UPDATE", func(i int) string { return fmt.Sprintf("UPDATE kv SET v = 'w%d' WHERE k = %d", i, i) }, ceilUpdate},
		{"single-row INSERT", func(i int) string { return fmt.Sprintf("INSERT INTO kv VALUES (%d, 'n%d')", 1000+i, i) }, ceilInsert},
	} {
		got := handleAllocs(t, s, sess, c.text)
		t.Logf("%s: %.0f allocations per statement (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f times per cached statement, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}

// Reached when the ceilings were set: 17, 15 and 16 (21, 19 and 20 before a
// cache hit's shape moved into session scratch and the request and response
// stayed off the heap).
const ceilSelect, ceilUpdate, ceilInsert = 19, 17, 18

// TestStmtCacheHitsAcrossLiterals: texts that differ in literal values alone
// are one shape — parsed once, executed with each text's own values.
func TestStmtCacheHitsAcrossLiterals(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT) DISTRIBUTE BY HASH(k)")
	for i := 0; i < 20; i++ {
		p := exec(t, s, sess, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'it''s %d')", i, i))
		if p.CacheHit != (i > 0) || p.RowsAffected != 1 {
			t.Fatalf("INSERT %d: cache hit %v, %d rows", i, p.CacheHit, p.RowsAffected)
		}
	}
	for i := 0; i < 20; i++ {
		p := exec(t, s, sess, fmt.Sprintf("select v from KV where k = %d", i))
		if p.CacheHit != (i > 0) {
			t.Fatalf("SELECT %d: cache hit %v", i, p.CacheHit)
		}
		if want := fmt.Sprintf("it's %d", i); len(p.Rows) != 1 || p.Rows[0][0].Str() != want {
			t.Fatalf("SELECT %d returned %v, want %q", i, p.Rows, want)
		}
	}
	for i := 0; i < 20; i++ {
		p := exec(t, s, sess, fmt.Sprintf("UPDATE kv SET v = 'u%d' WHERE k = %d", i, 19-i))
		if p.CacheHit != (i > 0) || p.RowsAffected != 1 {
			t.Fatalf("UPDATE %d: cache hit %v, %d rows", i, p.CacheHit, p.RowsAffected)
		}
	}
	if p := exec(t, s, sess, "SELECT v FROM kv WHERE k = 19"); p.Rows[0][0].Str() != "u0" {
		t.Fatalf("k = 19 reads %v, want u0", p.Rows)
	}
	// Another kind of literal, or a structural one, is another shape.
	for _, sql := range []string{
		"SELECT v FROM kv WHERE k = 3.0",
		"SELECT v FROM kv WHERE k = 3 LIMIT 1",
		"SELECT v FROM kv WHERE k = 3 LIMIT 2",
		"SELECT k, v FROM kv WHERE k < 3 ORDER BY 1",
		"SELECT k, v FROM kv WHERE k < 3 ORDER BY 2",
	} {
		if p := exec(t, s, sess, sql); p.CacheHit {
			t.Errorf("%q was served another shape's statement", sql)
		}
	}
	if p := exec(t, s, sess, "SELECT k, v FROM kv WHERE k < 7 ORDER BY 2"); !p.CacheHit || len(p.Rows) != 7 || p.Rows[0][1].Str() != "u13" {
		t.Errorf("ORDER BY 2 with another bound: cache hit %v, rows %v", p.CacheHit, p.Rows)
	}
	// Transaction verbs are shapes too.
	exec(t, s, sess, "BEGIN")
	exec(t, s, sess, "ROLLBACK")
	if p := exec(t, s, sess, "begin"); !p.CacheHit {
		t.Error("BEGIN missed the cache")
	}
	exec(t, s, sess, "COMMIT")
	// A table function's argument is a string value like any other: the
	// second text is served the first one's parse (and fails alike, on a
	// cluster without the graph engine).
	for i := 0; i < 2; i++ {
		p := roundtrip(t, s, &Request{Op: OpExec, Session: sess, SQL: fmt.Sprintf("SELECT * FROM ggraph('g.V(%d)') g", i+1)})
		if p.CacheHit != (i > 0) || p.Status != StatusError || !strings.Contains(p.Err, "graph engine") {
			t.Errorf("table-function statement %d: status %d, cache hit %v, err %q", i, p.Status, p.CacheHit, p.Err)
		}
	}
}

// TestStmtCacheScratchNeverShared: a session computes every statement's
// shape into scratch it reuses, so each statement must execute with its own
// values whatever the session prepared before it — a hit after a hit, a
// longer shape with more values, a miss, a hit again — and whatever the
// session prepares while it waits at the admission gate.
func TestStmtCacheScratchNeverShared(t *testing.T) {
	wm := autonomous.NewWorkloadManager(autonomous.SLA{TargetP95: time.Second},
		autonomous.WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1}, nil)
	s, _ := newTestServer(t, Config{Manager: wm})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT) DISTRIBUTE BY HASH(k)")
	for k := 1; k <= 7; k++ {
		exec(t, s, sess, fmt.Sprintf("INSERT INTO kv VALUES (%d, 'initial')", k))
	}
	want := map[int]string{}
	for _, st := range []struct {
		k   int
		v   string
		sql string
		hit bool
	}{
		{1, "one", "UPDATE kv SET v = 'one' WHERE k = 1", false},
		{2, "two, longer", "UPDATE kv SET v = 'two, longer' WHERE k = 2", true},
		{3, "three", "UPDATE kv SET v = 'three' WHERE k = 3 AND v <> 'one' AND k < 100 AND k > -5", false},
		{4, "4", "UPDATE kv SET v = '4' WHERE k IN (4, 1000)", false},
		{5, "five", "UPDATE kv SET v = 'five' WHERE k = 5", true},
	} {
		p := exec(t, s, sess, st.sql)
		if p.CacheHit != st.hit || p.RowsAffected != 1 {
			t.Fatalf("%q: cache hit %v, %d rows; want hit %v, 1 row", st.sql, p.CacheHit, p.RowsAffected, st.hit)
		}
		want[st.k] = st.v
	}

	// Two statements of the session wait at the gate, each prepared; the
	// first runs after the second has prepared over the scratch.
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for n, st := range []struct {
		k int
		v string
	}{{6, "six"}, {7, "seven, the last"}} {
		want[st.k] = st.v
		wg.Add(1)
		go func() {
			defer wg.Done()
			sql := fmt.Sprintf("UPDATE kv SET v = '%s' WHERE k = %d", st.v, st.k)
			p, err := DecodeResponse(s.Handle(EncodeRequest(&Request{Op: OpExec, Session: sess, SQL: sql})))
			if err != nil || p.Status != StatusOK || p.RowsAffected != 1 {
				t.Errorf("%q: %+v, %v", sql, p, err)
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); wm.QueueLen() <= n; time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("statement %d never queued", n)
			}
		}
	}
	wm.Release(time.Millisecond)
	wg.Wait()

	for k, v := range want {
		p := exec(t, s, sess, fmt.Sprintf("SELECT v FROM kv WHERE k = %d", k))
		if len(p.Rows) != 1 || p.Rows[0][0].Str() != v {
			t.Errorf("row %d reads %v, want %q", k, p.Rows, v)
		}
	}
}

// TestStmtCacheServesTableFunctions: texts whose ggraph or gspatial
// arguments differ are one shape, and each execution compiles its own
// argument — its own output columns and rows from one cached statement.
func TestStmtCacheServesTableFunctions(t *testing.T) {
	s, c := newTestServer(t, Config{})
	multimodel.Attach(c)
	g, err := graph.Create(c.NewSession(), "g", []types.Column{{Name: "cid", Kind: types.KindInt}}, []types.Column{{Name: "ts", Kind: types.KindInt}})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.AddVertex("person", map[string]types.Datum{"cid": types.NewInt(11111)})
	b, _ := g.AddVertex("person", map[string]types.Datum{"cid": types.NewInt(22222)})
	if err := g.AddEdge(a, b, "call", map[string]types.Datum{"ts": types.NewInt(5)}); err != nil {
		t.Fatal(err)
	}
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE pts (id BIGINT PRIMARY KEY, x DOUBLE, y DOUBLE) DISTRIBUTE BY HASH(id)")
	exec(t, s, sess, "INSERT INTO pts VALUES (1, 0.0, 0.0), (2, 3.0, 4.0), (3, 10.0, 10.0)")
	for i, tc := range []struct{ sql, cols, rows string }{
		{"SELECT * FROM ggraph('g.V().has(cid, 11111)') AS t", "id label", "[(1, person)]"},
		{"SELECT * FROM ggraph('g.V().has(''cid'', 22222).inE(call)') AS t", "from to label", "[(1, 2, call)]"},
		{"SELECT * FROM gspatial('pts.nearest(0, 0, 1)') AS p", "id x y", "[(1, 0, 0)]"},
		{"SELECT * FROM gspatial('pts.bbox(1, 1, 20, 20)') AS p", "id x y", "[(2, 3, 4) (3, 10, 10)]"},
	} {
		p := exec(t, s, sess, tc.sql)
		if p.CacheHit != (i%2 == 1) {
			t.Errorf("%s: cache hit %v", tc.sql, p.CacheHit)
		}
		if cols, rows := strings.Join(p.Columns, " "), fmt.Sprint(p.Rows); cols != tc.cols || rows != tc.rows {
			t.Errorf("%s: columns %q rows %s, want %q %s", tc.sql, cols, rows, tc.cols, tc.rows)
		}
	}
}

// TestStmtCacheBoundedByShapes: the cache holds shapes, StmtCacheSize of
// them, however many a session sends.
func TestStmtCacheBoundedByShapes(t *testing.T) {
	const limit = 16
	s, _ := newTestServer(t, Config{StmtCacheSize: limit})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT) DISTRIBUTE BY HASH(k)")
	for i := 0; i < 10000; i++ {
		// A LIMIT is part of the shape: a shape per i.
		if p := exec(t, s, sess, fmt.Sprintf("SELECT v FROM kv WHERE k = %d LIMIT %d", i%7, i+1)); p.CacheHit {
			t.Fatalf("shape %d was served from the cache", i)
		}
	}
	cached := s.lookup(sess)
	if n := cached.lru.Len(); n != limit || len(cached.cache) != limit {
		t.Fatalf("cache holds %d entries (%d keys) after 10000 shapes, want %d", n, len(cached.cache), limit)
	}
	if p := exec(t, s, sess, "SELECT v FROM kv WHERE k = 0 LIMIT 4"); p.CacheHit {
		t.Error("a shape evicted long ago reported a cache hit")
	}
}

// TestStmtCacheAnswersForTheNewTable: the cached statement is recompiled when
// the table it names is another table.
func TestStmtCacheAnswersForTheNewTable(t *testing.T) {
	s, c := newTestServer(t, Config{})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT PRIMARY KEY, v TEXT) DISTRIBUTE BY HASH(k)")
	exec(t, s, sess, "INSERT INTO kv VALUES (1, 'one')")
	if p := exec(t, s, sess, "SELECT v FROM kv WHERE k = 1"); p.Rows[0][0].Str() != "one" {
		t.Fatalf("rows = %v", p.Rows)
	}
	exec(t, s, sess, "DROP TABLE kv")
	exec(t, s, sess, "CREATE TABLE kv (v BIGINT, pad TEXT, k TEXT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(v)")
	exec(t, s, sess, "INSERT INTO kv VALUES (11, 'pad', 'a')")
	p := roundtrip(t, s, &Request{Op: OpExec, Session: sess, SQL: "SELECT v FROM kv WHERE k = 2"})
	if !p.CacheHit || p.Status != StatusError {
		t.Fatalf("comparing the new TEXT key with a number: status %d, cache hit %v, rows %v", p.Status, p.CacheHit, p.Rows)
	}
	if p := exec(t, s, sess, "SELECT v FROM kv WHERE k = 'a'"); len(p.Rows) != 1 || p.Rows[0][0].Int() != 11 {
		t.Fatalf("rows from the new table = %v", p.Rows)
	}
	if err := c.Analyze("kv"); err != nil {
		t.Fatal(err)
	}
	if p := exec(t, s, sess, "SELECT v FROM kv WHERE k = 'a'"); !p.CacheHit || p.Rows[0][0].Int() != 11 {
		t.Fatalf("after ANALYZE: cache hit %v, rows %v", p.CacheHit, p.Rows)
	}
}

// TestBeginFlag: a frame carrying FlagBegin opens the session's transaction
// and runs its statement under one admission slot, with the semantics of a
// BEGIN frame followed by the statement's — the transaction stays open when
// the statement fails, aborted until ROLLBACK. A frame that never executes
// (unparsable, shed, timed out at the gate) opens nothing, and InTxn says
// which happened.
func TestBeginFlag(t *testing.T) {
	wm := autonomous.NewWorkloadManager(autonomous.SLA{TargetP95: time.Second},
		autonomous.WorkloadConfig{InitialConcurrency: 1, MaxConcurrency: 1}, nil)
	s, _ := newTestServer(t, Config{Manager: wm})
	sess := hello(t, s, autonomous.PriorityNormal)
	exec(t, s, sess, "CREATE TABLE kv (k BIGINT, v BIGINT, PRIMARY KEY(k)) DISTRIBUTE BY HASH(k)")
	exec(t, s, sess, "INSERT INTO kv VALUES (1, 10)")
	begin := func(sql string, timeout uint32) *Response {
		t.Helper()
		return roundtrip(t, s, &Request{Op: OpExec, Flags: FlagBegin, Session: sess, SQL: sql, TimeoutMillis: timeout})
	}
	statements := s.Stats().Statements

	// Frames that do not execute open nothing.
	if p := begin("SELEC 1", 0); p.Status != StatusError || p.InTxn {
		t.Fatalf("unparsable begin frame: status=%d inTxn=%v", p.Status, p.InTxn)
	}
	if err := wm.Admit(); err != nil {
		t.Fatal(err)
	}
	if p := begin("INSERT INTO kv VALUES (2, 20)", 5); p.Err != errAdmissionTimeout.Error() || p.InTxn {
		t.Fatalf("begin frame timed out at the gate: status=%d err=%q inTxn=%v", p.Status, p.Err, p.InTxn)
	}
	wm.Release(time.Millisecond)
	if p := exec(t, s, sess, "SELECT count(*) FROM kv"); p.InTxn || p.Rows[0][0].Int() != 1 {
		t.Fatalf("after frames that never ran: inTxn=%v rows=%v", p.InTxn, p.Rows)
	}

	// A failing first statement: the transaction is open and aborted.
	if p := begin("INSERT INTO kv VALUES (1, 11)", 0); p.Status != StatusError || !p.InTxn {
		t.Fatalf("failing first statement: status=%d err=%q inTxn=%v, want an error inside the transaction", p.Status, p.Err, p.InTxn)
	}
	p := roundtrip(t, s, &Request{Op: OpExec, Session: sess, SQL: "INSERT INTO kv VALUES (3, 30)"})
	if p.Status != StatusError || p.Err != cluster.ErrTxnAborted.Error() || !p.InTxn {
		t.Fatalf("statement after the failed first one: status=%d err=%q inTxn=%v", p.Status, p.Err, p.InTxn)
	}
	if p := exec(t, s, sess, "ROLLBACK"); p.InTxn {
		t.Fatal("ROLLBACK left the session in a transaction")
	}

	// A succeeding one: BEGIN and the statement are one statement's worth of
	// admission, and COMMIT publishes what it wrote.
	if p := begin("INSERT INTO kv VALUES (2, 20)", 0); p.Status != StatusOK || !p.InTxn || p.RowsAffected != 1 {
		t.Fatalf("begin frame: status=%d err=%q inTxn=%v", p.Status, p.Err, p.InTxn)
	}
	exec(t, s, sess, "COMMIT")
	if p := exec(t, s, sess, "SELECT count(*) FROM kv"); p.Rows[0][0].Int() != 2 {
		t.Fatalf("count after commit = %v, want 2", p.Rows)
	}
	// Executed: the failing begin frame, the refused statement, ROLLBACK,
	// two counts, the begin frame, COMMIT.
	if got := s.Stats().Statements - statements; got != 7 {
		t.Errorf("statements executed = %d, want 7", got)
	}
}

// TestDecodeRequestRejectsUnknownFlags: a flag bit this version does not
// know is a frame it cannot honour.
func TestDecodeRequestRejectsUnknownFlags(t *testing.T) {
	for bit := uint8(1); bit != 0; bit <<= 1 {
		q := &Request{Op: OpExec, Flags: bit, Session: 1, SQL: "SELECT 1"}
		got, err := DecodeRequest(EncodeRequest(q))
		switch {
		case bit&knownFlags != 0 && (err != nil || *got != *q):
			t.Errorf("flag %#x: %+v, %v; want it round-tripped", bit, got, err)
		case bit&knownFlags == 0 && err == nil:
			t.Errorf("flag %#x decoded; want it rejected", bit)
		}
	}
}
