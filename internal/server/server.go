package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/autonomous"
	"repro/internal/cluster"
	"repro/internal/sqlx"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config configures a front-door server.
type Config struct {
	// SLA and Workload tune the admission controller; a zero SLA admits at
	// a generous default target (100ms p95).
	SLA      autonomous.SLA
	Workload autonomous.WorkloadConfig
	// Manager, when non-nil, is used instead of building a new workload
	// manager from SLA/Workload (shares the autopilot's controller).
	Manager *autonomous.WorkloadManager
	// MaxSessions bounds open sessions (0 = 65536).
	MaxSessions int
	// IdleTimeout evicts sessions with no traffic for this long (0
	// disables the reaper; EvictIdle can still be called manually).
	// Sessions inside an explicit transaction are never evicted.
	IdleTimeout time.Duration
	// StmtCacheSize bounds each session's prepared-statement cache
	// (statement shape -> prepared statement; 0 = 128).
	StmtCacheSize int
	// Clock overrides time for idle accounting (tests).
	Clock func() time.Time
}

// Stats is a server counter snapshot.
type Stats struct {
	SessionsOpen    int
	SessionsOpened  int64
	SessionsEvicted int64
	Statements      int64
	CacheHits       int64
	CacheMisses     int64
	// Workload is the admission controller's per-class view.
	Workload autonomous.WorkloadStats
}

// Server exposes one cluster behind the wire protocol.
type Server struct {
	c   *cluster.Cluster
	wm  *autonomous.WorkloadManager
	cfg Config

	mu       sync.RWMutex
	sessions map[uint64]*session
	nextSess uint64
	closed   bool

	nextClient atomic.Int64

	opened    atomic.Int64
	evicted   atomic.Int64
	stmts     atomic.Int64
	cacheHits atomic.Int64
	cacheMiss atomic.Int64

	reaperStop chan struct{}
	reaperDone chan struct{}
}

// session is the CN-side state of one client connection: a dedicated
// coordinator session (transaction affinity — BEGIN/COMMIT spans
// requests), the handshake priority class, a prepared-statement cache and
// idle bookkeeping.
type session struct {
	id  uint64
	cs  *cluster.Session
	pri autonomous.Priority

	// mu serializes requests on this session (the protocol is one
	// request/response at a time per connection, but Dispatch callers may
	// misbehave; execution state must not interleave).
	mu       sync.Mutex
	lastUsed atomic.Int64 // unix nanos
	// gone marks a session evicted or closed after a request had looked it
	// up: that request must not run on it (guarded by mu).
	gone bool

	// stmt cache: statement shape -> *list.Element of stmtEntry, LRU.
	cache map[string]*list.Element
	lru   *list.List
	limit int
	// The shape of the statement being prepared: scratch reused by every
	// statement of the session (guarded by mu).
	key    []byte
	params []types.Datum
	pos    []int
}

// stmtEntry is one cached shape: the statement parsed once with parameter
// nodes where its literals were, prepared on the session's coordinator
// session, which keeps what it compiles from it between executions.
type stmtEntry struct {
	key  string
	stmt *cluster.Prepared
}

// New builds a server over a cluster. Close releases the idle reaper.
func New(c *cluster.Cluster, cfg Config) *Server {
	if cfg.SLA.TargetP95 <= 0 {
		cfg.SLA.TargetP95 = 100 * time.Millisecond
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 65536
	}
	if cfg.StmtCacheSize <= 0 {
		cfg.StmtCacheSize = 128
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	wm := cfg.Manager
	if wm == nil {
		wm = autonomous.NewWorkloadManager(cfg.SLA, cfg.Workload, nil)
	}
	s := &Server{
		c:        c,
		wm:       wm,
		cfg:      cfg,
		sessions: map[uint64]*session{},
	}
	if cfg.IdleTimeout > 0 {
		s.reaperStop = make(chan struct{})
		s.reaperDone = make(chan struct{})
		go s.reap()
	}
	return s
}

// Workload exposes the admission controller (experiments, monitoring).
func (s *Server) Workload() *autonomous.WorkloadManager { return s.wm }

// Stats snapshots the server counters.
func (s *Server) Stats() Stats {
	s.mu.RLock()
	open := len(s.sessions)
	s.mu.RUnlock()
	return Stats{
		SessionsOpen:    open,
		SessionsOpened:  s.opened.Load(),
		SessionsEvicted: s.evicted.Load(),
		Statements:      s.stmts.Load(),
		CacheHits:       s.cacheHits.Load(),
		CacheMisses:     s.cacheMiss.Load(),
		Workload:        s.wm.Stats(),
	}
}

// Close evicts every session and stops the idle reaper.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.sessions = map[uint64]*session{}
	s.mu.Unlock()
	if s.reaperStop != nil {
		close(s.reaperStop)
		<-s.reaperDone
	}
}

func (s *Server) reap() {
	defer close(s.reaperDone)
	interval := s.cfg.IdleTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.reaperStop:
			return
		case <-tick.C:
			s.EvictIdle(s.cfg.Clock())
		}
	}
}

// EvictIdle closes sessions idle since before now - IdleTimeout, skipping
// sessions inside an explicit transaction. It returns how many it evicted.
func (s *Server) EvictIdle(now time.Time) int {
	if s.cfg.IdleTimeout <= 0 {
		return 0
	}
	cutoff := now.Add(-s.cfg.IdleTimeout).UnixNano()
	var victims []*session
	s.mu.Lock()
	for id, sess := range s.sessions {
		if sess.lastUsed.Load() < cutoff {
			victims = append(victims, sess)
			delete(s.sessions, id)
		}
	}
	s.mu.Unlock()
	n := 0
	for _, sess := range victims {
		sess.mu.Lock()
		if sess.cs.InTxn() {
			// Raced into a transaction: put it back.
			sess.mu.Unlock()
			s.mu.Lock()
			if !s.closed {
				s.sessions[sess.id] = sess
			}
			s.mu.Unlock()
			continue
		}
		sess.gone = true
		sess.mu.Unlock()
		s.evicted.Add(1)
		n++
	}
	return n
}

// NewClientEndpoint allocates a fabric endpoint for one client connection;
// its traffic is accounted per-link and subject to injected faults.
func (s *Server) NewClientEndpoint() transport.Endpoint {
	return transport.Client(int(s.nextClient.Add(1)))
}

// Dispatch loss sentinels: a request-leg loss means the statement never
// executed (safe to retry); a response-leg loss means it may have executed
// and only the result vanished (the driver must not blindly retry DML).
var (
	ErrRequestLost  = errors.New("server: request frame lost in transit")
	ErrResponseLost = errors.New("server: response frame lost after execution")
)

// Dispatch carries one request frame over the fabric from the client
// endpoint to the CN, handles it, and carries the response back. Either
// leg can fail from injected faults or partitions — the caller sees that
// exactly as a broken TCP connection, with the lost leg identified.
func (s *Server) Dispatch(client transport.Endpoint, req []byte) ([]byte, error) {
	fab := s.c.Fabric()
	if err := fab.Send(client, transport.CN(), transport.ClientReq, len(req)); err != nil {
		return nil, errors.Join(ErrRequestLost, err)
	}
	resp := s.Handle(req)
	if err := fab.Send(transport.CN(), client, transport.ClientResp, len(resp)); err != nil {
		return nil, errors.Join(ErrResponseLost, err)
	}
	return resp, nil
}

// Serve accepts connections on l and speaks the same frames over
// length-prefixed TCP until the listener closes. Each connection gets one
// session; the session closes with the connection.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	var sessID uint64
	for {
		frame, err := ReadFrame(conn)
		if err != nil {
			break
		}
		resp := s.Handle(frame)
		if sessID == 0 {
			if p, err := DecodeResponse(resp); err == nil && p.Session != 0 {
				sessID = p.Session
			}
		}
		if err := WriteFrame(conn, resp); err != nil {
			break
		}
	}
	if sessID != 0 {
		s.closeSession(sessID)
	}
}

// Handle processes one decoded-from-wire request frame and returns the
// encoded response frame. It never fails: protocol errors come back as
// StatusError responses.
func (s *Server) Handle(req []byte) []byte {
	var q Request
	var p Response
	if err := q.decode(req); err != nil {
		p = Response{Status: StatusError, Err: err.Error()}
	} else {
		switch q.Op {
		case OpHello:
			p = s.hello(&q)
		case OpPing:
			p = Response{Status: StatusOK, Session: q.Session}
		case OpClose:
			s.closeSession(q.Session)
			p = Response{Status: StatusOK}
		case OpExec:
			p = s.exec(&q)
		default:
			p = Response{Status: StatusError, Err: fmt.Sprintf("server: unknown op %d", q.Op)}
		}
	}
	return EncodeResponse(&p)
}

func (s *Server) hello(q *Request) Response {
	pri := autonomous.Priority(q.Priority)
	if int(pri) > int(autonomous.PriorityHigh) {
		pri = autonomous.PriorityHigh
	}
	sess := &session{
		cs:    s.c.NewSession(),
		pri:   pri,
		cache: map[string]*list.Element{},
		lru:   list.New(),
		limit: s.cfg.StmtCacheSize,
	}
	sess.lastUsed.Store(s.cfg.Clock().UnixNano())
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Response{Status: StatusError, Err: "server: closed"}
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		return Response{Status: StatusError, Err: "server: session limit reached"}
	}
	s.nextSess++
	sess.id = s.nextSess
	s.sessions[sess.id] = sess
	s.mu.Unlock()
	s.opened.Add(1)
	return Response{Status: StatusOK, Session: sess.id}
}

func (s *Server) closeSession(id uint64) {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		sess.mu.Lock()
		sess.gone = true
		if sess.cs.InTxn() {
			// Roll back the abandoned transaction so its legs release.
			_, _ = sess.cs.Exec("ROLLBACK")
		}
		sess.mu.Unlock()
	}
}

func (s *Server) lookup(id uint64) *session {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.sessions[id]
}

var errAdmissionTimeout = errors.New("server: admission wait timed out")

// admitTimeout bounds the admission queue wait when the request carries no
// timeout of its own.
const admitTimeout = 5 * time.Second

// errNoSession answers a request whose session is unknown or gone.
var errNoSession = Response{Status: StatusNoSession, Err: "server: unknown or expired session (re-handshake)"}

// exec runs one OpExec frame: prepare from the session's cache, pass the
// admission gate, execute. A frame carrying FlagBegin opens the session's
// transaction first, under the same admission slot, so BEGIN and the first
// statement cost one frame with the two frames' semantics: the transaction
// stays open whatever the statement does, aborted if it failed. A frame
// that fails before executing — unparsable, shed, timed out at the gate —
// opens nothing, and Response.InTxn says which happened.
func (s *Server) exec(q *Request) Response {
	sess := s.lookup(q.Session)
	if sess == nil {
		return errNoSession
	}
	sess.lastUsed.Store(s.cfg.Clock().UnixNano())

	stmt, params, hit, err := sess.prepare(q.SQL)
	if err != nil {
		return Response{Status: StatusError, Err: err.Error()}
	}
	if hit {
		s.cacheHits.Add(1)
	} else {
		s.cacheMiss.Add(1)
	}

	// Admission gate: every statement needs a slot. A free one is taken on
	// the spot; only a statement that must queue gets a deadline — the
	// request's timeout (or the server default) — and frees its queue slot
	// when that cancels it.
	if !s.wm.TryAdmit(sess.pri) {
		wait := admitTimeout
		if q.TimeoutMillis > 0 {
			wait = time.Duration(q.TimeoutMillis) * time.Millisecond
		}
		ctx, cancel := context.WithTimeout(context.Background(), wait)
		err = s.wm.AdmitPriority(ctx, sess.pri)
		cancel()
		switch {
		case errors.Is(err, autonomous.ErrQueueFull):
			return Response{Status: StatusQueueFull, Session: q.Session, CacheHit: hit, Err: err.Error()}
		case err != nil:
			return Response{Status: StatusError, Session: q.Session, CacheHit: hit, Err: errAdmissionTimeout.Error()}
		}
	}

	sess.mu.Lock()
	if sess.gone {
		// Evicted between lookup and here: run nothing — above all, open
		// no transaction on a session nobody can reach again.
		sess.mu.Unlock()
		s.wm.Release(0)
		return errNoSession
	}
	start := time.Now()
	var res *cluster.Result
	var execErr error
	if q.Flags&FlagBegin != 0 {
		execErr = sess.cs.Begin()
	}
	if execErr == nil {
		res, execErr = stmt.Exec(params)
	}
	lat := time.Since(start)
	inTxn := sess.cs.InTxn()
	sess.mu.Unlock()
	s.wm.Release(lat)
	s.stmts.Add(1)
	sess.lastUsed.Store(s.cfg.Clock().UnixNano())

	if execErr != nil {
		return Response{Status: StatusError, Session: q.Session, CacheHit: hit, InTxn: inTxn, Err: execErr.Error()}
	}
	return Response{
		Status:       StatusOK,
		Session:      q.Session,
		CacheHit:     hit,
		InTxn:        inTxn,
		RowsAffected: int64(res.RowsAffected),
		Columns:      res.Columns,
		Rows:         res.Rows,
	}
}

// prepare returns the prepared statement for sql and the values to execute
// it with, serving every text of a shape seen before from the session's
// cache. The shape is computed into the session's scratch, so a hit
// allocates only the values' own slice, made at their number: the scratch
// is overwritten by the session's next statement, and Exec must not see
// that. A miss parses the text with parameter nodes where AppendShape lifted
// its literals (the parser reads the offsets only during the call) and keys
// the cache with a string of the key; a text whose lifted literals the
// grammar does not read as expression literals is parsed as it stands and
// not cached.
func (sess *session) prepare(sql string) (stmt *cluster.Prepared, params []types.Datum, hit bool, err error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sess.key, sess.params, sess.pos = sqlx.AppendShape(sess.key[:0], sess.params[:0], sess.pos[:0], sql)
	if len(sess.params) > 0 {
		params = append(make([]types.Datum, 0, len(sess.params)), sess.params...)
	}
	if el, ok := sess.cache[string(sess.key)]; ok {
		sess.lru.MoveToFront(el)
		return el.Value.(*stmtEntry).stmt, params, true, nil
	}
	ast, err := sqlx.ParseLifted(sql, sess.pos)
	if errors.Is(err, sqlx.ErrUnliftable) {
		if ast, err = sqlx.Parse(sql); err == nil {
			return sess.cs.Prepare(ast), nil, false, nil
		}
	}
	if err != nil {
		return nil, nil, false, err
	}
	stmt = sess.cs.Prepare(ast)
	key := string(sess.key)
	sess.cache[key] = sess.lru.PushFront(&stmtEntry{key: key, stmt: stmt})
	for sess.lru.Len() > sess.limit {
		old := sess.lru.Remove(sess.lru.Back()).(*stmtEntry)
		delete(sess.cache, old.key)
	}
	return stmt, params, false, nil
}

// NormalizeSQL returns the statement cache's key for a statement text: its
// shape (see sqlx.AppendShape), the values lifted into stack scratch as a
// session lifts them into its own.
func NormalizeSQL(sql string) string {
	var params [8]types.Datum
	var pos [8]int
	key, _, _ := sqlx.AppendShape(make([]byte, 0, len(sql)), params[:0], pos[:0], sql)
	return string(key)
}
