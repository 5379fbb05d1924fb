package main

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/htap"
	"repro/internal/server"
	"repro/internal/tpcc"
	"repro/internal/transport"
	"repro/internal/types"
)

// warmupShare of every client's operations run before timing starts.
const warmupShare = 0.05

// stack is one epoch's database: a fresh 4-data-node GTM-lite cluster, its
// front-door server and an in-process client pool over the fabric, so
// frames are encoded, dispatched and admitted but no kernel socket is
// measured.
type stack struct {
	db   *core.DB
	srv  *server.Server
	pool *driver.DB
	htap *htap.Manager
}

// open builds the workload's stack and loads its tables: the set-up the
// setup_s metric times.
func (w *workload) open(clients int, seed int64) (*stack, error) {
	db, err := core.Open(core.Options{DataNodes: 4})
	if err != nil {
		return nil, err
	}
	st := &stack{db: db}
	fail := func(err error) (*stack, error) {
		st.close()
		return nil, fmt.Errorf("set-up of %s: %w", w.name, err)
	}
	db.Cluster().ParallelDegree = w.degree
	if st.srv, err = db.NewServer(server.Config{}); err != nil {
		return fail(err)
	}
	if st.pool, err = driver.Open(driver.Fabric(st.srv), driver.Options{PoolSize: clients, Seed: seed | 1}); err != nil {
		return fail(err)
	}
	sess := db.Session()
	if w.load != nil {
		for _, sql := range w.load() {
			if _, err := sess.Exec(sql); err != nil {
				return fail(err)
			}
		}
	}
	if w.tpccCfg.Warehouses > 0 {
		if err := tpcc.Load(db.Cluster(), w.tpccCfg); err != nil {
			return fail(err)
		}
	}
	for _, t := range w.analyze {
		if err := db.Analyze(t); err != nil {
			return fail(err)
		}
	}
	if w.htap {
		// The zero Config is the strict one: replicas must have applied every
		// record before they serve, and a reader blocks until they have.
		if st.htap, err = db.EnableHTAP(htap.Config{}); err != nil {
			return fail(err)
		}
	}
	return st, nil
}

// timedOpen is open behind a collection (the previous epoch's database is
// garbage; it is collected outside the timing) with the time open took.
func (w *workload) timedOpen(clients int, seed int64) (*stack, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	st, err := w.open(clients, seed)
	return st, time.Since(start), err
}

func (st *stack) close() {
	if st.pool != nil {
		st.pool.Close()
	}
	st.db.Close()
}

// query runs a verification statement on a coordinator session of its own.
func (st *stack) query(sql string) ([]types.Row, error) {
	res, err := st.db.Session().Exec(sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return res.Rows, nil
}

// invariants runs the checks that need the cluster, not just SQL.
func (w *workload) invariants(st *stack) error {
	c := st.db.Cluster()
	if w.tpccCfg.Warehouses > 0 {
		if err := tpcc.CheckInvariants(c, w.tpccCfg); err != nil {
			return err
		}
	}
	if st.htap == nil {
		return nil
	}
	if err := st.htap.WaitCaughtUp(10 * time.Second); err != nil {
		return err
	}
	for _, rs := range st.htap.Status().Replicas {
		for _, tbl := range c.DistributedTableNames() {
			want, err := c.PartitionDigest(tbl, rs.DN, rs.DN)
			if err != nil {
				return err
			}
			got, err := st.htap.ReplicaDigest(tbl, rs.DN)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("htap: replica of %s on dn%d differs from its primary", tbl, rs.DN)
			}
		}
	}
	return st.htap.Err()
}

// counters is a snapshot of every cumulative count the benchmark reports;
// sub gives the change over a timed phase.
type counters struct {
	fabric                   transport.Stats
	allocBytes, mallocs      uint64
	gcPause, cpu             time.Duration
	gtm                      int64
	stmts, cacheHits         int64
	admitted, queued, shed   int64
	retries, reconnects      int64
	shedFinal                int64
	scans                    colstore.ScanStats
	applied, offloaded       int64
	degraded, blocks, timers int64
}

func (st *stack) snapshot() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	c := st.db.Cluster()
	ss, ps := st.srv.Stats(), st.pool.Stats()
	k := counters{
		fabric:     c.Fabric().Stats(),
		allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gtm:     c.GTMStats().Total(),
		stmts:   ss.Statements, cacheHits: ss.CacheHits,
		retries: ps.Retries, reconnects: ps.Reconnects, shedFinal: ps.StatementsShedForGood,
	}
	for _, cs := range ss.Workload.ByClass {
		k.admitted += cs.Admitted
		k.queued += cs.Queued
		k.shed += cs.Shed
	}
	_, k.scans = c.ColstoreStats()
	if st.htap != nil {
		hs := st.htap.Status()
		k.scans.Add(hs.Scans)
		k.applied, k.offloaded = hs.RecordsApplied, hs.QueriesOffloaded
		k.degraded, k.blocks, k.timers = hs.QueriesDegraded, hs.GateBlocks, hs.GateTimeouts
	}
	return k
}

func (k counters) sub(b counters) counters {
	k.fabric = k.fabric.Sub(b.fabric)
	k.allocBytes -= b.allocBytes
	k.mallocs -= b.mallocs
	k.gcPause -= b.gcPause
	k.cpu -= b.cpu
	k.gtm -= b.gtm
	k.stmts -= b.stmts
	k.cacheHits -= b.cacheHits
	k.admitted -= b.admitted
	k.queued -= b.queued
	k.shed -= b.shed
	k.retries -= b.retries
	k.reconnects -= b.reconnects
	k.shedFinal -= b.shedFinal
	k.scans.SegmentsScanned -= b.scans.SegmentsScanned
	k.scans.SegmentsPruned -= b.scans.SegmentsPruned
	k.scans.RowsScanned -= b.scans.RowsScanned
	k.applied -= b.applied
	k.offloaded -= b.offloaded
	k.degraded -= b.degraded
	k.blocks -= b.blocks
	k.timers -= b.timers
	return k
}

// epochMode selects how an epoch's operations are issued.
type epochMode uint8

const (
	modeClients epochMode = iota // every client on its own goroutine through the driver: the end-to-end run
	modeSingle                   // all clients' operations merged onto one goroutine through the driver, untraced
	modeTraced                   // as modeSingle, rotating through the three depths with spans recorded
)

// tally counts what clients did; each client keeps its own while it runs.
type tally struct {
	attempted, failed int64
	ok                [numClasses]int64 // operations that succeeded, warm-up included
	timedOps          int64             // operations that succeeded inside the timed phase
	txns              int64             // of which transactions
	firstErr          error
	lat               [numClasses][]float64 // ms, timed phase, successful operations
}

func (t *tally) add(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.timedOps += o.timedOps
	t.txns += o.txns
	t.firstErr = keepErr(t.firstErr, o.firstErr)
	for c := range o.lat {
		t.ok[c] += o.ok[c]
		t.lat[c] = append(t.lat[c], o.lat[c]...)
	}
}

// epochResult is what one epoch measured.
type epochResult struct {
	tally
	setup, wall        time.Duration
	delta              counters
	tr                 *tracer // modeTraced
	lag                lagSamples
	bloat, bytesPerRow float64
}

// lagSamples is the 1 ms sampler's view of the HTAP apply lag.
type lagSamples struct {
	n, sum, max int64
}

// pacer lets the htap reader wait for the writer's progress. When the
// writer has finished its share of a phase the reader stops waiting, so a
// reader that is behind can never hang.
type pacer struct {
	mu   sync.Mutex
	cond *sync.Cond
	done int64 // operations client 0 has completed
	over bool  // client 0 has finished the current phase
}

func newPacer() *pacer {
	p := &pacer{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *pacer) advance() {
	p.mu.Lock()
	p.done++
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *pacer) setOver(over bool) {
	p.mu.Lock()
	p.over = over
	p.mu.Unlock()
	p.cond.Broadcast()
}

func (p *pacer) waitFor(n int64) {
	p.mu.Lock()
	for p.done < n && !p.over {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// keepErr returns the error worth reporting: the first one, unless a later
// one is a wrong reply and the first is not.
func keepErr(first, err error) error {
	var wrong wrongReply
	if first == nil || (errors.As(err, &wrong) && !errors.As(first, &wrong)) {
		return err
	}
	return first
}

// mergeClients interleaves the clients' operations onto one list: round
// robin, except that a paced operation waits for its place behind client 0.
func mergeClients(lists [][]op) []op {
	var out []op
	next := make([]int, len(lists))
	for remaining := true; remaining; {
		remaining = false
		for c, ops := range lists {
			if next[c] >= len(ops) {
				continue
			}
			o := ops[next[c]]
			if o.after > int64(next[0]) && next[0] < len(lists[0]) {
				remaining = true
				continue
			}
			o.after = 0
			out = append(out, o)
			next[c]++
			remaining = true
		}
	}
	return out
}

// runEpoch opens a fresh stack, runs one epoch of w's operations and
// verifies the outcome. epochSeed seeds the plan; wd guards every
// operation.
func runEpoch(w *workload, epochSeed int64, mode epochMode, hop time.Duration, wd *watchdog) (*epochResult, error) {
	p := w.plan(epochSeed)
	lists := p.clients
	if mode != modeClients {
		lists = [][]op{mergeClients(lists)}
	}

	st, setup, err := w.timedOpen(len(lists), epochSeed)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := &epochResult{setup: setup}

	callers := make([][numDepths]caller, len(lists))
	if mode == modeTraced {
		res.tr = newTracer()
		hc, err := newHandleCaller(st.srv, res.tr)
		if err != nil {
			return nil, err
		}
		callers[0] = [numDepths]caller{
			&driverCaller{pool: st.pool, tr: res.tr}, hc, &stmtCaller{sess: st.db.Session(), tr: res.tr},
		}
	} else {
		for c := range callers {
			callers[c][depthDriver] = &driverCaller{pool: st.pool}
		}
	}

	pace := newPacer()
	// phase runs operations [from(c), to(c)) of every client concurrently.
	phase := func(timed bool, from, to func(c int) int) {
		var wg sync.WaitGroup
		pace.setOver(false)
		tallies := make([]tally, len(lists))
		for c := range lists {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ops, t := lists[c], &tallies[c]
				for i := from(c); i < to(c); i++ {
					o := &ops[i]
					if o.after > 0 {
						pace.waitFor(o.after)
					}
					d := depthDriver
					if mode == modeTraced {
						d = depth(i % int(numDepths))
						res.tr.beginOp(i)
					}
					wd.enter(c)
					took, err := runOp(callers[c][d], o)
					wd.leave(c)
					if mode == modeTraced {
						res.tr.endOp(o.class, d, took, err == nil && timed)
					}
					t.attempted++
					if err != nil {
						t.failed++
						t.firstErr = keepErr(t.firstErr, fmt.Errorf("%s op %d of client %d: %w", o.class, i, c, err))
					} else {
						t.ok[o.class]++
					}
					if err == nil && timed {
						t.timedOps++
						if o.txn {
							t.txns++
						}
						if d == depthDriver {
							t.lat[o.class] = append(t.lat[o.class], float64(took)/1e6)
						}
					}
					if c == 0 {
						pace.advance()
					}
				}
				if c == 0 {
					pace.setOver(true)
				}
			}(c)
		}
		wg.Wait()
		for c := range tallies {
			res.tally.add(&tallies[c])
		}
	}
	warm := func(c int) int {
		n := int(warmupShare * float64(len(lists[c])))
		if n < 1 && len(lists[c]) > 1 {
			n = 1
		}
		return n
	}
	phase(false, func(int) int { return 0 }, warm)

	fab := st.db.Cluster().Fabric()
	fab.SetBaseLatency(hop)
	stopLag := sampleLag(st.htap, &res.lag)
	runtime.GC()
	base := st.snapshot()
	t0 := time.Now()
	phase(true, warm, func(c int) int { return len(lists[c]) })
	res.wall = time.Since(t0)
	res.delta = st.snapshot().sub(base)
	stopLag()
	fab.SetBaseLatency(0)

	var wrong wrongReply
	if errors.As(res.firstErr, &wrong) {
		return nil, fmt.Errorf("%s: wrong result: %w", w.name, res.firstErr)
	}
	err = p.final(st.query, res.ok, res.failed)
	if err == nil {
		err = w.invariants(st)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: wrong result: %w", w.name, err)
	}
	res.bloat, res.bytesPerRow = st.shape()
	return res, nil
}

// sampleLag polls the HTAP manager's apply lag every millisecond until the
// returned stop function is called. With no manager it does nothing.
func sampleLag(m *htap.Manager, out *lagSamples) (stop func()) {
	if m == nil {
		return func() {}
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				lag := m.Status().MaxLagRecords
				out.n++
				out.sum += lag
				if lag > out.max {
					out.max = lag
				}
			}
		}
	}()
	return func() { close(quit); <-done }
}

// shape reports the row store's versions per live row and the column
// store's stored bytes per row (8 bytes per stored value) at epoch end.
func (st *stack) shape() (bloat, bytesPerRow float64) {
	var versions, visible int
	for _, b := range st.db.Cluster().BloatReport() {
		versions += b.Versions
		visible += b.Visible
	}
	if visible > 0 {
		bloat = float64(versions) / float64(visible)
	}
	ts, _ := st.db.Cluster().ColstoreStats()
	if st.htap != nil {
		ts.Add(st.htap.Status().Colstore)
	}
	if ts.SegmentRows > 0 {
		bytesPerRow = 8 * float64(ts.CompressedValues) / float64(ts.SegmentRows)
	}
	return bloat, bytesPerRow
}

// watchdog fails the run when one operation takes longer than limit: a
// hang (the shuffle-join deadlock is one ParallelDegree away) must be a
// failure with a goroutine dump, not a timeout of the whole run.
type watchdog struct {
	limit   time.Duration
	started []atomic.Int64 // per client: when its current operation began, 0 when idle
	expired func(client int, stacks []byte)
	quit    chan struct{}
	done    chan struct{}
}

func startWatchdog(limit time.Duration, clients int, expired func(client int, stacks []byte)) *watchdog {
	w := &watchdog{limit: limit, started: make([]atomic.Int64, clients), expired: expired,
		quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		tick := time.NewTicker(limit / 20)
		defer tick.Stop()
		for {
			select {
			case <-w.quit:
				return
			case now := <-tick.C:
				for c := range w.started {
					if s := w.started[c].Load(); s != 0 && now.UnixNano()-s > int64(w.limit) {
						buf := make([]byte, 1<<20)
						w.expired(c, buf[:runtime.Stack(buf, true)])
						return
					}
				}
			}
		}
	}()
	return w
}

func (w *watchdog) enter(client int) { w.started[client].Store(time.Now().UnixNano()) }
func (w *watchdog) leave(client int) { w.started[client].Store(0) }
func (w *watchdog) stop()            { close(w.quit); <-w.done }
