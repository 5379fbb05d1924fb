package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"repro/internal/server"
	"repro/internal/sqlx"
)

// spanName identifies the public function a span was recorded around.
type spanName uint8

const (
	spOp spanName = iota // one whole operation; the parent of every other span
	spDriverBegin
	spDriverExec
	spDriverCommit
	spServerHandle
	spClusterExecStmt
	spParse
	spNormalize
	spEncodeRequest
	spDecodeRequest
	spDecodeResponse
	spEncodeResponse
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "driver.Begin", "driver.Exec", "driver.Commit", "server.Handle", "cluster.ExecStmt",
	"sqlx.Parse", "server.NormalizeSQL", "server.EncodeRequest", "server.DecodeRequest",
	"server.DecodeResponse", "server.EncodeResponse",
}

// span is one recorded interval. Spans are taken in bench/ only, around
// calls into each layer's public functions; start and end are nanoseconds
// since the tracer was made.
type span struct {
	name       spanName
	op, parent int32 // operation id; index of the parent span, -1 for a root
	start, end int64
}

// tracer keeps the spans of a traced epoch in memory and folds them into
// per-class samples as operations finish. A nil tracer records nothing,
// which is how the end-to-end run uses the callers.
type tracer struct {
	origin time.Time
	spans  []span
	cur    int32 // index of the current operation's root span

	// accumulated over the current operation
	parse, plan time.Duration
	shipped     int64
	stmts, hits int64

	// per class, in microseconds
	lat             [numDepths][numClasses][]float64
	parseUs         [numClasses][]float64
	planUs          [numClasses][]float64
	stmtsBy, hitsBy [numClasses]int64 // statements and cache hits seen above ExecStmt

	// pure stages, one sample per statement, in nanoseconds
	normalizeNs, reqDecodeNs []float64
	respEncodeNs, respRows   int64
	shippedRows, shippedOps  int64
}

func newTracer() *tracer { return &tracer{origin: time.Now(), cur: -1} }

func (t *tracer) span(name spanName, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, op: t.spans[t.cur].op, parent: t.cur,
		start: int64(start.Sub(t.origin)), end: int64(end.Sub(t.origin))})
}

// beginOp opens the root span of operation id.
func (t *tracer) beginOp(id int) {
	t.cur = int32(len(t.spans))
	t.spans = append(t.spans, span{name: spOp, op: int32(id), parent: -1, start: int64(time.Since(t.origin))})
	t.parse, t.plan, t.shipped, t.stmts, t.hits = 0, 0, 0, 0, 0
}

// endOp closes the operation and, when it succeeded, files its timings
// under its class and depth. inLayer is what runOp returned.
func (t *tracer) endOp(c class, d depth, inLayer time.Duration, ok bool) {
	t.spans[t.cur].end = int64(time.Since(t.origin))
	if !ok {
		return
	}
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	t.lat[d][c] = append(t.lat[d][c], us(inLayer))
	t.parseUs[c] = append(t.parseUs[c], us(t.parse))
	if d == depthExecStmt {
		t.planUs[c] = append(t.planUs[c], us(t.plan))
		t.shippedRows += t.shipped
		t.shippedOps++
	} else {
		t.stmtsBy[c] += t.stmts
		t.hitsBy[c] += t.hits
	}
}

// pure times the stages that need nothing but the statement text —
// parse, cache-key normalisation, request encode and decode — on the text
// about to be issued, and returns the parsed statement.
func (t *tracer) pure(sql string) (sqlx.Statement, error) {
	if t == nil {
		return nil, nil
	}
	t0 := time.Now()
	st, err := sqlx.Parse(sql)
	t1 := time.Now()
	server.NormalizeSQL(sql)
	t2 := time.Now()
	frame := server.EncodeRequest(&server.Request{Op: server.OpExec, Session: 1, SQL: sql})
	t3 := time.Now()
	_, derr := server.DecodeRequest(frame)
	t4 := time.Now()
	if err == nil {
		err = derr
	}
	t.span(spParse, t0, t1)
	t.span(spNormalize, t1, t2)
	t.span(spEncodeRequest, t2, t3)
	t.span(spDecodeRequest, t3, t4)
	t.parse += t1.Sub(t0)
	t.normalizeNs = append(t.normalizeNs, float64(t2.Sub(t1)))
	t.reqDecodeNs = append(t.reqDecodeNs, float64(t4.Sub(t3)))
	return st, err
}

// decodeResponse decodes a response frame and, when tracing, times the
// decode and a re-encode of the same response.
func (t *tracer) decodeResponse(raw []byte) (*server.Response, error) {
	if t == nil {
		return server.DecodeResponse(raw)
	}
	t0 := time.Now()
	resp, err := server.DecodeResponse(raw)
	t1 := time.Now()
	t.span(spDecodeResponse, t0, t1)
	if err != nil {
		return nil, err
	}
	server.EncodeResponse(resp)
	t2 := time.Now()
	t.span(spEncodeResponse, t1, t2)
	if len(resp.Rows) > 0 {
		t.respEncodeNs += int64(t2.Sub(t1))
		t.respRows += int64(len(resp.Rows))
	}
	return resp, nil
}

func (t *tracer) sawCache(hit bool) {
	if t == nil {
		return
	}
	t.stmts++
	if hit {
		t.hits++
	}
}

func (t *tracer) sawPlan(planTime time.Duration, shipped int64) {
	t.plan += planTime
	t.shipped += shipped
}

// merge appends another epoch's samples (spans stay with their epoch).
func (t *tracer) merge(o *tracer) {
	for d := range t.lat {
		for c := range t.lat[d] {
			t.lat[d][c] = append(t.lat[d][c], o.lat[d][c]...)
		}
	}
	for c := 0; c < int(numClasses); c++ {
		t.parseUs[c] = append(t.parseUs[c], o.parseUs[c]...)
		t.planUs[c] = append(t.planUs[c], o.planUs[c]...)
		t.stmtsBy[c] += o.stmtsBy[c]
		t.hitsBy[c] += o.hitsBy[c]
	}
	t.normalizeNs = append(t.normalizeNs, o.normalizeNs...)
	t.reqDecodeNs = append(t.reqDecodeNs, o.reqDecodeNs...)
	t.respEncodeNs += o.respEncodeNs
	t.respRows += o.respRows
	t.shippedRows += o.shippedRows
	t.shippedOps += o.shippedOps
}

// selfTimes derives one class's self times (µs) from the medians at the
// three depths; the parse a cache hit skips is not charged to the server.
func (t *tracer) selfTimes(c class) selfTimes {
	missRatio := 1.0
	if t.stmtsBy[c] > 0 {
		missRatio = 1 - float64(t.hitsBy[c])/float64(t.stmtsBy[c])
	}
	return subtractDepths(
		median(t.lat[depthDriver][c]), median(t.lat[depthHandle][c]), median(t.lat[depthExecStmt][c]),
		median(t.parseUs[c])*missRatio, median(t.planUs[c]))
}

// writeSpans writes one JSON object per span: name, operation id, parent
// span index, start and end in nanoseconds.
func writeSpans(path string, epochs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Epoch  int    `json:"epoch"`
		Span   int    `json:"span"`
		Name   string `json:"name"`
		Op     int32  `json:"op"`
		Parent int32  `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	}
	for e, t := range epochs {
		for i, s := range t.spans {
			if err := enc.Encode(line{e, i, spanNames[s.name], s.op, s.parent, s.start, s.end}); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
