// Package driver is the client half of the front door: a database/sql-style
// access layer (sqlx idiom) over the server's wire protocol. It provides a
// connection pool with health-checked checkout, named-parameter binding
// (:name from maps or structs), struct scanning of result rows,
// prepared-statement handles that survive reconnect (binding is
// client-side, so a handle is just its template), transaction affinity
// (Begin pins a pooled connection until Commit/Rollback), and jittered
// exponential backoff when the server's admission gate sheds the statement
// with queue-full. Begin sends nothing: a transaction's first frame carries
// the begin bit (server.FlagBegin) and opens it server-side, and a
// transaction that never sent a frame ends without one — so an n-statement
// transaction costs n+1 round trips, not n+2.
package driver

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autonomous"
	"repro/internal/server"
	"repro/internal/transport"
	"repro/internal/types"
)

// ErrPoolClosed is returned by operations on a closed DB.
var ErrPoolClosed = errors.New("driver: pool is closed")

// ErrShed is returned when the server kept shedding the statement after
// every retry (the admission queue stayed full).
var ErrShed = errors.New("driver: statement shed by admission control after retries")

// Transport carries one encoded request frame to the server and returns
// the encoded response frame. Implementations: the in-process fabric
// carrier and a length-prefixed TCP connection.
type Transport interface {
	Roundtrip(req []byte) ([]byte, error)
	Close() error
}

// Dialer creates one transport per pooled connection.
type Dialer func() (Transport, error)

// Fabric returns a dialer that connects through the in-process transport
// fabric, so client traffic is byte-accounted per link and subject to
// injected faults. Each pooled connection gets its own client endpoint.
func Fabric(srv *server.Server) Dialer {
	return func() (Transport, error) {
		return &fabricCarrier{srv: srv, ep: srv.NewClientEndpoint()}, nil
	}
}

// fabricCarrier sends each frame as one fabric message pair
// (client_req / client_resp).
type fabricCarrier struct {
	srv *server.Server
	ep  transport.Endpoint
}

func (f *fabricCarrier) Roundtrip(req []byte) ([]byte, error) { return f.srv.Dispatch(f.ep, req) }
func (f *fabricCarrier) Close() error                         { return nil }

// Net returns a dialer that connects over TCP with length-prefixed frames
// (the same bytes the fabric carries).
func Net(addr string) Dialer {
	return func() (Transport, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &netCarrier{c: c}, nil
	}
}

type netCarrier struct {
	mu sync.Mutex
	c  net.Conn
}

func (n *netCarrier) Roundtrip(req []byte) ([]byte, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := server.WriteFrame(n.c, req); err != nil {
		return nil, errors.Join(server.ErrRequestLost, err)
	}
	resp, err := server.ReadFrame(n.c)
	if err != nil {
		return nil, errors.Join(server.ErrResponseLost, err)
	}
	return resp, nil
}

func (n *netCarrier) Close() error { return n.c.Close() }

// Options tunes a client pool.
type Options struct {
	// PoolSize bounds open connections (0 = 8). Checkout blocks when all
	// are busy.
	PoolSize int
	// Priority is the SLA class sent in the handshake (default
	// PriorityNormal).
	Priority autonomous.Priority
	// StmtTimeout bounds the server-side admission wait per statement
	// (0 = server default).
	StmtTimeout time.Duration
	// RetryMax bounds queue-full retries per statement (0 = 8; negative
	// disables retries).
	RetryMax int
	// RetryBase seeds the jittered exponential backoff (0 = 500µs).
	RetryBase time.Duration
	// RetryCap bounds one backoff sleep (0 = 50ms).
	RetryCap time.Duration
	// HealthCheckAfter pings a pooled connection idle for longer than
	// this before reusing it (0 = 30s).
	HealthCheckAfter time.Duration
	// Seed seeds the backoff jitter (0 = time-based).
	Seed int64
}

// PoolStats counts pool activity.
type PoolStats struct {
	Open, Idle            int
	Retries               int64 // queue-full backoff retries
	Reconnects            int64 // transports redialed after errors/eviction
	HealthChecksFailed    int64
	StatementsSent        int64
	StatementsCacheHit    int64 // server-side prepared-cache hits observed
	StatementsShedForGood int64 // gave up after RetryMax
}

// conn is one pooled connection: a transport plus its server session.
type conn struct {
	t        Transport
	sess     uint64
	lastUsed time.Time
}

// DB is a pooled client to one server (sqlx-style surface).
type DB struct {
	dial Dialer
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	free    []*conn
	numOpen int
	closed  bool
	rng     *rand.Rand

	retries    atomic.Int64
	reconnects atomic.Int64
	hcFailed   atomic.Int64
	sent       atomic.Int64
	cacheHits  atomic.Int64
	shedFinal  atomic.Int64
}

// Open builds a pool. Connections are dialed lazily on first checkout.
func Open(dial Dialer, opts Options) (*DB, error) {
	if dial == nil {
		return nil, errors.New("driver: nil dialer")
	}
	if opts.PoolSize <= 0 {
		opts.PoolSize = 8
	}
	if opts.RetryMax == 0 {
		opts.RetryMax = 8
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 500 * time.Microsecond
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = 50 * time.Millisecond
	}
	if opts.HealthCheckAfter <= 0 {
		opts.HealthCheckAfter = 30 * time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	db := &DB{dial: dial, opts: opts, rng: rand.New(rand.NewSource(seed))}
	db.cond = sync.NewCond(&db.mu)
	return db, nil
}

// Close closes every idle connection and fails future checkouts. Busy
// connections close as they are returned.
func (db *DB) Close() error {
	db.mu.Lock()
	db.closed = true
	free := db.free
	db.free = nil
	db.numOpen -= len(free)
	db.cond.Broadcast()
	db.mu.Unlock()
	for _, cn := range free {
		db.hangup(cn)
	}
	return nil
}

// Stats snapshots pool counters.
func (db *DB) Stats() PoolStats {
	db.mu.Lock()
	open, idle := db.numOpen, len(db.free)
	db.mu.Unlock()
	return PoolStats{
		Open: open, Idle: idle,
		Retries:               db.retries.Load(),
		Reconnects:            db.reconnects.Load(),
		HealthChecksFailed:    db.hcFailed.Load(),
		StatementsSent:        db.sent.Load(),
		StatementsCacheHit:    db.cacheHits.Load(),
		StatementsShedForGood: db.shedFinal.Load(),
	}
}

// connect dials a transport and performs the handshake.
func (db *DB) connect() (*conn, error) {
	t, err := db.dial()
	if err != nil {
		return nil, err
	}
	cn := &conn{t: t, lastUsed: time.Now()}
	if err := db.handshake(cn); err != nil {
		t.Close()
		return nil, err
	}
	return cn, nil
}

func (db *DB) handshake(cn *conn) error {
	var resp server.Response
	if err := db.roundtrip(cn, &server.Request{Op: server.OpHello, Priority: uint8(db.opts.Priority)}, &resp); err != nil {
		return err
	}
	if resp.Status != server.StatusOK {
		return fmt.Errorf("driver: handshake rejected: %s", resp.Err)
	}
	cn.sess = resp.Session
	return nil
}

// roundtrip sends q on cn and decodes the reply into resp.
func (db *DB) roundtrip(cn *conn, q *server.Request, resp *server.Response) error {
	raw, err := cn.t.Roundtrip(server.EncodeRequest(q))
	if err != nil {
		return err
	}
	return resp.Decode(raw)
}

// checkout returns a healthy connection, dialing or blocking as needed.
func (db *DB) checkout() (*conn, error) {
	db.mu.Lock()
	for {
		if db.closed {
			db.mu.Unlock()
			return nil, ErrPoolClosed
		}
		if n := len(db.free); n > 0 {
			cn := db.free[n-1]
			db.free = db.free[:n-1]
			db.mu.Unlock()
			if time.Since(cn.lastUsed) > db.opts.HealthCheckAfter {
				if err := db.ping(cn); err != nil {
					db.hcFailed.Add(1)
					if cn = db.redial(cn); cn == nil {
						return nil, errors.New("driver: health check failed and redial failed")
					}
				}
			}
			return cn, nil
		}
		if db.numOpen < db.opts.PoolSize {
			db.numOpen++
			db.mu.Unlock()
			cn, err := db.connect()
			if err != nil {
				db.mu.Lock()
				db.numOpen--
				db.cond.Signal()
				db.mu.Unlock()
				return nil, err
			}
			return cn, nil
		}
		db.cond.Wait()
	}
}

// putback returns a connection to the pool; a dead one is closed and its
// slot freed.
func (db *DB) putback(cn *conn, dead bool) {
	db.mu.Lock()
	if dead || db.closed {
		db.numOpen--
		db.cond.Signal()
		db.mu.Unlock()
		db.hangup(cn)
		return
	}
	cn.lastUsed = time.Now()
	db.free = append(db.free, cn)
	db.cond.Signal()
	db.mu.Unlock()
}

func (db *DB) hangup(cn *conn) {
	if cn.sess != 0 {
		// Best-effort close of the server session.
		var resp server.Response
		_ = db.roundtrip(cn, &server.Request{Op: server.OpClose, Session: cn.sess}, &resp)
	}
	cn.t.Close()
}

// redial replaces a broken transport in place, re-handshaking a fresh
// session. Prepared-statement handles survive: binding is client-side and
// the server cache rebuilds on use.
func (db *DB) redial(cn *conn) *conn {
	cn.t.Close()
	db.reconnects.Add(1)
	t, err := db.dial()
	if err != nil {
		return nil
	}
	cn.t = t
	cn.sess = 0
	if err := db.handshake(cn); err != nil {
		t.Close()
		return nil
	}
	return cn
}

func (db *DB) ping(cn *conn) error {
	var resp server.Response
	if err := db.roundtrip(cn, &server.Request{Op: server.OpPing, Session: cn.sess}, &resp); err != nil {
		return err
	}
	if resp.Status != server.StatusOK {
		return fmt.Errorf("driver: ping: %s", resp.Err)
	}
	return nil
}

// Ping checks out a connection and probes it.
func (db *DB) Ping() error {
	cn, err := db.checkout()
	if err != nil {
		return err
	}
	err = db.ping(cn)
	db.putback(cn, err != nil)
	return err
}

// backoff sleeps the jittered exponential delay for retry attempt n.
func (db *DB) backoff(attempt int) {
	d := db.opts.RetryBase << uint(attempt)
	if d > db.opts.RetryCap {
		d = db.opts.RetryCap
	}
	db.mu.Lock()
	j := time.Duration(db.rng.Int63n(int64(d) + 1))
	db.mu.Unlock()
	time.Sleep(d/2 + j/2)
}

// Result is one statement's outcome.
type Result struct {
	Columns      []string
	Rows         []types.Row
	RowsAffected int64
	// CacheHit reports a server-side prepared-statement cache hit.
	CacheHit bool
}

// execOn runs one bound statement on cn with queue-full retries (safe: a
// shed statement never executed). tx is the transaction the statement
// belongs to, nil for autocommit. Until a frame of tx has opened the
// transaction on the server, each of its frames carries the begin bit and
// nothing of it is pinned server-side, so — as for an autocommit statement
// — a lost request leg redials and retries and an evicted session
// re-handshakes. Once the server session holds the transaction, both
// surface: a new session would not have it. A lost response leg always
// surfaces (the statement may have executed).
func (db *DB) execOn(cn *conn, sql string, tx *Tx) (*Result, *conn, error) {
	begin := tx != nil && !tx.begun
	req := &server.Request{
		Op:            server.OpExec,
		Priority:      uint8(db.opts.Priority),
		Session:       cn.sess,
		TimeoutMillis: uint32(db.opts.StmtTimeout / time.Millisecond),
		SQL:           sql,
	}
	if begin {
		req.Flags = server.FlagBegin
	}
	pinned := tx != nil && !begin
	rehandshakes := 0
	// Every attempt's reply is decoded into this one response; what
	// outlives it is the columns and rows a Result takes over.
	var resp server.Response
	for attempt := 0; ; {
		db.sent.Add(1)
		if err := db.roundtrip(cn, req, &resp); err != nil {
			if errors.Is(err, server.ErrRequestLost) && !pinned {
				// The statement never reached the server: reconnect and
				// retry.
				if cn = db.redial(cn); cn != nil {
					req.Session = cn.sess
					continue
				}
				return nil, nil, errors.New("driver: connection lost and redial failed")
			}
			if begin && errors.Is(err, server.ErrResponseLost) {
				tx.begun = true // it may have opened the transaction: end it with a frame
			}
			return nil, cn, err
		}
		if begin && resp.InTxn {
			tx.begun = true
		}
		if resp.CacheHit {
			db.cacheHits.Add(1)
		}
		switch resp.Status {
		case server.StatusOK:
			return &Result{
				Columns:      resp.Columns,
				Rows:         resp.Rows,
				RowsAffected: resp.RowsAffected,
				CacheHit:     resp.CacheHit,
			}, cn, nil
		case server.StatusQueueFull:
			if db.opts.RetryMax < 0 || attempt >= db.opts.RetryMax {
				db.shedFinal.Add(1)
				return nil, cn, fmt.Errorf("%w (%d attempts)", ErrShed, attempt+1)
			}
			db.retries.Add(1)
			db.backoff(attempt)
			attempt++
		case server.StatusNoSession:
			// Idle-evicted by the server reaper: transparent re-handshake
			// (not inside a transaction — eviction skips in-txn sessions).
			if pinned || rehandshakes >= 2 {
				return nil, cn, errors.New("driver: session expired: " + resp.Err)
			}
			rehandshakes++
			cn.sess = 0
			if err := db.handshake(cn); err != nil {
				return nil, cn, err
			}
			req.Session = cn.sess
		default:
			return nil, cn, errors.New(resp.Err)
		}
	}
}

// exec checks out a connection, runs one bound statement and returns the
// connection to the pool.
func (db *DB) exec(sql string) (*Result, error) {
	cn, err := db.checkout()
	if err != nil {
		return nil, err
	}
	res, cn2, err := db.execOn(cn, sql, nil)
	if cn2 == nil {
		// The connection died mid-retry; its slot was not returned.
		db.mu.Lock()
		db.numOpen--
		db.cond.Signal()
		db.mu.Unlock()
		return nil, err
	}
	db.putback(cn2, err != nil && !errors.Is(err, ErrShed) && !isStmtError(err))
	return res, err
}

// isStmtError reports whether the error came from statement execution
// (the connection itself is fine and reusable).
func isStmtError(err error) bool {
	return !errors.Is(err, server.ErrRequestLost) && !errors.Is(err, server.ErrResponseLost)
}

// Exec runs a statement. An optional single arg supplies named parameters
// (map or struct, sqlx idiom).
func (db *DB) Exec(query string, arg ...any) (*Result, error) {
	sql, err := bindOptional(query, arg)
	if err != nil {
		return nil, err
	}
	return db.exec(sql)
}

// NamedExec runs a statement binding :name parameters from arg.
func (db *DB) NamedExec(query string, arg any) (*Result, error) {
	sql, err := BindNamed(query, arg)
	if err != nil {
		return nil, err
	}
	return db.exec(sql)
}

// Query is Exec for reads; it exists for call-site clarity.
func (db *DB) Query(query string, arg ...any) (*Result, error) {
	return db.Exec(query, arg...)
}

// Get runs a query and scans the first row into dest (struct pointer or
// scalar pointer for single-column results). It fails if no row matches.
func (db *DB) Get(dest any, query string, arg ...any) error {
	res, err := db.Query(query, arg...)
	if err != nil {
		return err
	}
	return scanOne(dest, res)
}

// Select runs a query and scans every row into dest (*[]T with T a struct
// or scalar).
func (db *DB) Select(dest any, query string, arg ...any) error {
	res, err := db.Query(query, arg...)
	if err != nil {
		return err
	}
	return scanAll(dest, res)
}

func bindOptional(query string, arg []any) (string, error) {
	switch len(arg) {
	case 0:
		return query, nil
	case 1:
		return BindNamed(query, arg[0])
	default:
		return "", fmt.Errorf("driver: pass at most one named-parameter arg, got %d", len(arg))
	}
}

// Stmt is a prepared-statement handle: the template plus its pool. Handles
// survive reconnect — binding happens client-side and the server's
// per-session statement cache repopulates on first use after a new
// session.
type Stmt struct {
	db    *DB
	query string
}

// Prepare builds a reusable handle for query (with :name placeholders).
func (db *DB) Prepare(query string) *Stmt { return &Stmt{db: db, query: query} }

// Exec binds arg and runs the statement.
func (st *Stmt) Exec(arg any) (*Result, error) { return st.db.NamedExec(st.query, arg) }

// Query is Exec for reads.
func (st *Stmt) Query(arg any) (*Result, error) { return st.db.NamedExec(st.query, arg) }

// Get binds, runs, and scans the first row into dest.
func (st *Stmt) Get(dest any, arg any) error {
	res, err := st.db.NamedExec(st.query, arg)
	if err != nil {
		return err
	}
	return scanOne(dest, res)
}

// Select binds, runs, and scans all rows into dest.
func (st *Stmt) Select(dest any, arg any) error {
	res, err := st.db.NamedExec(st.query, arg)
	if err != nil {
		return err
	}
	return scanAll(dest, res)
}

// Tx is an explicit transaction pinned to one pooled connection, so every
// statement lands on the same server session (transaction affinity).
type Tx struct {
	db *DB
	cn *conn
	// begun says the server session holds the transaction: a frame carrying
	// the begin bit opened it — or may have, its response having been lost.
	begun bool
	done  bool
	dead  bool
}

// Begin pins a pooled connection for a transaction. It sends nothing: the
// transaction's first frame opens it on the server (see execOn).
func (db *DB) Begin() (*Tx, error) {
	cn, err := db.checkout()
	if err != nil {
		return nil, err
	}
	return &Tx{db: db, cn: cn}, nil
}

// Exec runs a statement inside the transaction.
func (tx *Tx) Exec(query string, arg ...any) (*Result, error) {
	if tx.done {
		return nil, errors.New("driver: transaction already finished")
	}
	sql, err := bindOptional(query, arg)
	if err != nil {
		return nil, err
	}
	res, cn, err := tx.db.execOn(tx.cn, sql, tx)
	if cn == nil || (err != nil && !isStmtError(err) && !errors.Is(err, ErrShed)) {
		tx.dead = true
	}
	return res, err
}

// Query is Exec for reads.
func (tx *Tx) Query(query string, arg ...any) (*Result, error) { return tx.Exec(query, arg...) }

// NamedExec runs a statement binding :name parameters from arg.
func (tx *Tx) NamedExec(query string, arg any) (*Result, error) {
	sql, err := BindNamed(query, arg)
	if err != nil {
		return nil, err
	}
	return tx.Exec(sql)
}

// Get runs a query and scans the first row into dest.
func (tx *Tx) Get(dest any, query string, arg ...any) error {
	res, err := tx.Exec(query, arg...)
	if err != nil {
		return err
	}
	return scanOne(dest, res)
}

// Commit commits and unpins the connection.
func (tx *Tx) Commit() error { return tx.end("COMMIT") }

// Rollback aborts and unpins the connection.
func (tx *Tx) Rollback() error { return tx.end("ROLLBACK") }

// end sends verb — unless no frame of the transaction ever opened it on the
// server, which leaves nothing to end — and unpins the connection.
func (tx *Tx) end(verb string) error {
	if tx.done {
		return errors.New("driver: transaction already finished")
	}
	var err error
	if tx.begun {
		_, err = tx.Exec(verb)
	}
	tx.finish(tx.dead)
	return err
}

func (tx *Tx) finish(dead bool) {
	if tx.done {
		return
	}
	tx.done = true
	tx.db.putback(tx.cn, dead)
}
