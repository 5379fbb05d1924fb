package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/driver"
	"repro/internal/server"
	"repro/internal/types"
)

// depth is the layer boundary at which an operation enters the stack. The
// end-to-end run uses depthDriver only; the traced run rotates operations
// through all three, so medians can be subtracted layer by layer.
type depth uint8

const (
	depthDriver   depth = iota // driver.DB: pool, codec, fabric dispatch, then everything below
	depthHandle                // Server.Handle on a hand-made session: decode, cache, admission, then below
	depthExecStmt              // cluster.Session.ExecStmt on a parsed statement: plan, route, execute
	numDepths
)

// reply is what one statement returned, at whatever depth it was issued.
type reply struct {
	rows     []types.Row
	affected int64
}

// caller issues one statement at one depth — BEGIN, COMMIT and ROLLBACK
// included, as the statements they are on the wire — and returns the time
// spent inside the entered layer, excluding the benchmark's own work before
// and after the call.
type caller interface {
	exec(sql string) (reply, time.Duration, error)
}

// wrongReply marks a reply that arrived but differs from the generator's
// expectation: a correctness failure, not a failed operation.
type wrongReply struct{ error }

// runOp issues one operation through c and checks every reply. The
// returned duration is the sum of the calls into the stack.
func runOp(c caller, o *op) (time.Duration, error) {
	var total time.Duration
	issue := func(sql string, check func([]types.Row, int64) error) error {
		r, d, err := c.exec(sql)
		total += d
		if err == nil && check != nil {
			if err = check(r.rows, r.affected); err != nil {
				err = wrongReply{err}
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", sql, err)
		}
		return nil
	}
	if o.txn {
		if err := issue("BEGIN", nil); err != nil {
			return total, err
		}
	}
	for i := range o.stmts {
		if err := issue(o.stmts[i].sql, o.stmts[i].check); err != nil {
			if o.txn {
				_, _, _ = c.exec("ROLLBACK") // best effort: the failure being reported is err
			}
			return total, err
		}
	}
	if o.txn {
		return total, issue("COMMIT", nil)
	}
	return total, nil
}

// driverCaller is the front door as an application sees it: a pooled
// connection per autocommit statement, a pinned one per transaction
// (BEGIN is driver.DB.Begin, COMMIT and ROLLBACK end the driver.Tx).
type driverCaller struct {
	pool *driver.DB
	tx   *driver.Tx
	tr   *tracer // nil outside the traced run
}

func (c *driverCaller) exec(sql string) (reply, time.Duration, error) {
	c.tr.pure(sql)
	var res *driver.Result
	var err error
	name := spDriverExec
	start := time.Now()
	switch {
	case sql == "BEGIN":
		name = spDriverBegin
		c.tx, err = c.pool.Begin()
	case sql == "COMMIT" && c.tx != nil:
		name = spDriverCommit
		err = c.tx.Commit()
		c.tx = nil
	case sql == "ROLLBACK" && c.tx != nil:
		err = c.tx.Rollback()
		c.tx = nil
	case c.tx != nil:
		res, err = c.tx.Exec(sql)
	default:
		res, err = c.pool.Exec(sql)
	}
	end := time.Now()
	c.tr.span(name, start, end)
	if err != nil || res == nil {
		return reply{}, end.Sub(start), err
	}
	c.tr.sawCache(res.CacheHit)
	return reply{rows: res.Rows, affected: res.RowsAffected}, end.Sub(start), nil
}

// handleCaller speaks the wire protocol to Server.Handle directly, on a
// session opened with its own OpHello. Only the Handle call is timed:
// what the driver adds around it (encode, pool, fabric legs, decode) is
// the difference to depthDriver.
type handleCaller struct {
	srv  *server.Server
	sess uint64
	tr   *tracer
}

func newHandleCaller(srv *server.Server, tr *tracer) (*handleCaller, error) {
	resp, err := server.DecodeResponse(srv.Handle(server.EncodeRequest(&server.Request{Op: server.OpHello})))
	if err != nil {
		return nil, err
	}
	if resp.Status != server.StatusOK {
		return nil, errors.New("hello rejected: " + resp.Err)
	}
	return &handleCaller{srv: srv, sess: resp.Session, tr: tr}, nil
}

func (c *handleCaller) exec(sql string) (reply, time.Duration, error) {
	c.tr.pure(sql)
	frame := server.EncodeRequest(&server.Request{Op: server.OpExec, Session: c.sess, SQL: sql})
	start := time.Now()
	raw := c.srv.Handle(frame)
	end := time.Now()
	c.tr.span(spServerHandle, start, end)
	resp, err := c.tr.decodeResponse(raw)
	if err != nil {
		return reply{}, end.Sub(start), err
	}
	if resp.Status != server.StatusOK {
		return reply{}, end.Sub(start), fmt.Errorf("status %d: %s", resp.Status, resp.Err)
	}
	c.tr.sawCache(resp.CacheHit)
	return reply{rows: resp.Rows, affected: resp.RowsAffected}, end.Sub(start), nil
}

// stmtCaller enters below the front door: the statement is parsed by the
// benchmark (timed as sqlx.Parse) and handed to Session.ExecStmt. It
// exists in the traced run only, so tr is never nil.
type stmtCaller struct {
	sess *cluster.Session
	tr   *tracer
}

func (c *stmtCaller) exec(sql string) (reply, time.Duration, error) {
	st, err := c.tr.pure(sql)
	if err != nil {
		return reply{}, 0, err
	}
	start := time.Now()
	res, err := c.sess.ExecStmt(st)
	end := time.Now()
	c.tr.span(spClusterExecStmt, start, end)
	if err != nil {
		return reply{}, end.Sub(start), err
	}
	c.tr.sawPlan(res.PlanTime, res.RowsShipped)
	return reply{rows: res.Rows, affected: int64(res.RowsAffected)}, end.Sub(start), nil
}
