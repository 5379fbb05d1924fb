// Command bench is the repository's benchmark: five named workloads over
// the FI-MPPDB stack, entered through the front door, with 13 end-to-end
// metrics per workload and a traced run that attributes each class of
// operation to the layers of the paper's statement path. See README.md.
//
//	go run ./bench                                   every workload, end to end
//	go run ./bench -workload point -seed 2 -trace 1  one traced run
//	go run ./bench -out A.json -repeat 3             keep the results for -compare
//	go run ./bench -compare A.json B.json            base against new, exit 1 on any regression
//
// Run for one workload, the last line of standard output is the JSON
// object the benchmark contract in BENCHMARK.json describes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/internal/transport"
)

// opTimeout is the longest any one operation may take before the
// watchdog dumps every goroutine's stack and fails the run.
const opTimeout = 10 * time.Second

// failedLine is the contract's last line for a run that produced no result.
const failedLine = `{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}`

// minEpochs is the fewest epochs a run makes, whatever its time.
const minEpochs = 3

// minSetups is the fewest set-ups behind a run's setup_s: a workload whose
// epochs are long (wan) sets up a few more times without running anything.
const minSetups = 7

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: point, tpcc, analytics, htap, wan or all")
		seed         = flag.Int64("seed", 1, "generator seed: the same seed gives the same statements")
		seconds      = flag.Float64("seconds", 22, "how long one run of one workload lasts, set-up included")
		trace        = flag.Int("trace", 0, "1: the traced run, reporting the per-layer metrics")
		out          = flag.String("out", "", "write the results (and, traced, <out>.spans.jsonl) to this file")
		repeat       = flag.Int("repeat", 1, "runs per workload, so that -compare can tell a change from the spread")
		compare      = flag.Bool("compare", false, "compare two -out files: bench -compare BASE NEW")
		spec         = flag.String("spec", "BENCHMARK.json", "benchmark contract, read by -compare for the bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare BASE.json NEW.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1), *spec))
	}
	names := workloadNames
	if *workloadFlag != "all" {
		names = []string{*workloadFlag}
	}

	var all []*result
	var spans []*tracer
	for _, name := range names {
		for rep := 0; rep < *repeat; rep++ {
			r, tr, err := runWorkload(name, 1, *seed, *seconds, *trace == 1, *out)
			if err != nil {
				// A wrong result or a hang leaves no result file behind.
				fmt.Fprintln(os.Stderr, "bench:", err)
				fmt.Println(failedLine)
				os.Exit(1)
			}
			printTable(r)
			all = append(all, r)
			spans = append(spans, tr...)
		}
	}
	if *out != "" {
		if err := writeResults(*out, all); err != nil {
			fatal(1, err.Error())
		}
		if len(spans) > 0 {
			if err := writeSpans(*out+".spans.jsonl", spans); err != nil {
				fatal(1, err.Error())
			}
		}
	}
	for _, r := range all {
		fmt.Println(r.contractLine())
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "bench:", msg)
	os.Exit(code)
}

// runWorkload runs one workload once at scale s and returns its result
// and, traced, the tracers holding its spans. stacksNextTo names the
// result file a watchdog dump is written beside.
func runWorkload(name string, s scale, seed int64, seconds float64, traced bool, stacksNextTo string) (*result, []*tracer, error) {
	w, err := newWorkload(name, s, seed)
	if err != nil {
		return nil, nil, err
	}
	wd := startWatchdog(opTimeout, 2, func(client int, stacks []byte) {
		fmt.Fprintf(os.Stderr, "bench: %s: an operation of client %d exceeded %v; goroutine stacks follow\n%s\n", name, client, opTimeout, stacks)
		if stacksNextTo != "" {
			_ = os.WriteFile(stacksNextTo+".stacks.txt", stacks, 0o644) // the dump is already on stderr
		}
		fmt.Println(failedLine)
		os.Exit(3)
	})
	defer wd.stop()
	if traced {
		return runTraced(w, seed, seconds, wd)
	}
	r, err := runEndToEnd(w, seed, seconds, wd)
	return r, nil, err
}

// perOp is the denominator of an epoch's per-operation metrics: committed
// transactions on htap (the reader's queries ride on the writer's
// transactions), timed operations elsewhere.
func (e *epochResult) perOp(w *workload) float64 {
	if w.htap {
		return float64(e.txns)
	}
	return float64(e.timedOps)
}

// endToEndOf computes one epoch's end-to-end metrics. A latency metric
// is present only when the epoch ran its class; samples gives the timings
// behind each.
func endToEndOf(w *workload, e *epochResult) (values map[string]float64, samples map[string]int) {
	ops := e.perOp(w)
	values = map[string]float64{
		"setup_s":            e.setup.Seconds(),
		"throughput_ops_s":   ops / e.wall.Seconds(),
		"alloc_kb_per_op":    float64(e.delta.allocBytes) / 1024 / ops,
		"fabric_msgs_per_op": float64(e.delta.fabric.Total()) / ops,
	}
	samples = map[string]int{}
	for _, lm := range latencyMetrics {
		if v, ok := lm.stat(e.lat[lm.class]); ok {
			values[lm.name] = v
			samples[lm.name] = len(e.lat[lm.class])
		}
	}
	return values, samples
}

// runEndToEnd repeats untraced epochs while another fits in the run's time
// and reports, for each of the 13 end-to-end metrics, the median over the
// epochs: one epoch disturbed by the machine moves no metric far.
func runEndToEnd(w *workload, seed int64, seconds float64, wd *watchdog) (*result, error) {
	start := time.Now()
	limit := time.Duration(seconds * float64(time.Second))
	perEpoch := map[string][]float64{}
	samples := map[string]int{}
	var attempted, failed int64
	var firstErr error
	var longest time.Duration // the longest epoch so far, set-up and verification included
	for e := 0; ; e++ {
		if seconds <= 0 && e >= 1 {
			break // tests: one epoch
		}
		// An epoch that would end after the run's time is not started, so a
		// run lasts what it was given however slow the machine is.
		if e >= minEpochs && time.Since(start)+longest > limit {
			break
		}
		t0 := time.Now()
		er, err := runEpoch(w, subSeed(seed, e), modeClients, w.hop, wd)
		if err != nil {
			return nil, err
		}
		if d := time.Since(t0); d > longest {
			longest = d
		}
		values, n := endToEndOf(w, er)
		for name, v := range values {
			perEpoch[name] = append(perEpoch[name], v)
			samples[name] += n[name]
		}
		attempted += er.attempted
		failed += er.failed
		firstErr = keepErr(firstErr, er.firstErr)
	}
	if epochs := len(perEpoch["setup_s"]); seconds > 0 && epochs < minSetups {
		clients := len(w.plan(subSeed(seed, 0)).clients)
		for e := epochs; e < minSetups; e++ {
			st, took, err := w.timedOpen(clients, subSeed(seed, e))
			if err != nil {
				return nil, err
			}
			st.close()
			perEpoch["setup_s"] = append(perEpoch["setup_s"], took.Seconds())
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; the first: %v\n", w.name, failed, attempted, firstErr)
	}
	r := &result{Workload: w.name, Seed: seed, Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range endToEnd() {
		switch vals := perEpoch[d.name]; {
		case d.name == "ok_ratio":
			r.Metrics[d.name] = metric{Value: float64(attempted-failed) / float64(attempted), Unit: d.unit}
		case len(vals) > 0:
			r.Metrics[d.name] = metric{Value: median(vals), Unit: d.unit, Samples: samples[d.name]}
		default:
			// A latency metric of a class this workload does not run repeats the
			// workload's headline latency: the contract wants every metric from
			// every workload, never 0.
			r.Metrics[d.name] = metric{Value: median(perEpoch[w.headline]), Unit: d.unit}
		}
	}
	return r, r.checkComplete(endToEnd())
}

// native reports whether the metric was measured on this workload's own
// operations: a latency metric that only repeats the headline carries no
// sample count.
func (r *result) native(metricName string) bool {
	for _, lm := range latencyMetrics {
		if lm.name == metricName {
			return r.Metrics[metricName].Samples > 0
		}
	}
	return true
}

// runTraced runs traced epochs, which rotate operations through the three
// entry depths, until the time is up, and one untraced single-client
// reference epoch (the counts at the layer boundaries, and the base of the
// tracing overhead). It reports the per-layer metrics; its numbers
// never feed an end-to-end metric.
func runTraced(w *workload, seed int64, seconds float64, wd *watchdog) (*result, []*tracer, error) {
	start := time.Now()
	// Untraced epochs: one client at the workload's hop; the same at hop 0
	// (wan only); every client on its own goroutine, as the end-to-end run.
	var ref, flat, full *epochResult
	var tracers []*tracer
	tr := newTracer()
	var tracedMs []float64 // full-depth latencies of the traced epochs
	r := &result{Workload: w.name, Seed: seed, Trace: 1, Correct: true, Metrics: map[string]metric{}}
	count := func(e *epochResult) {
		r.Attempted += e.attempted
		r.Failed += e.failed
		if e.firstErr != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: operations failed; the first: %v\n", w.name, e.firstErr)
		}
	}
	for e := 0; e == 0 || time.Since(start).Seconds() < seconds; e++ {
		b, err := runEpoch(w, subSeed(seed, e), modeTraced, w.hop, wd)
		if err != nil {
			return nil, nil, err
		}
		count(b)
		tr.merge(b.tr)
		tracers = append(tracers, b.tr)
		for c := range b.lat {
			tracedMs = append(tracedMs, b.lat[c]...)
		}
		if e > 0 {
			continue
		}
		// The reference runs second, once the first epoch has sized the heap.
		if ref, err = runEpoch(w, subSeed(seed, 0), modeSingle, w.hop, wd); err != nil {
			return nil, nil, err
		}
		count(ref)
		if w.hop > 0 {
			if flat, err = runEpoch(w, subSeed(seed, 0), modeSingle, 0, wd); err != nil {
				return nil, nil, err
			}
			count(flat)
		}
		if full, err = runEpoch(w, subSeed(seed, 0), modeClients, w.hop, wd); err != nil {
			return nil, nil, err
		}
		count(full)
	}
	m, err := micro(w.plan(subSeed(seed, 0)))
	if err != nil {
		return nil, nil, err
	}

	for c := class(0); c < numClasses; c++ {
		if len(tr.lat[depthDriver][c]) == 0 || len(tr.lat[depthHandle][c]) == 0 || len(tr.lat[depthExecStmt][c]) == 0 {
			continue
		}
		st := tr.selfTimes(c)
		full, handle, execStmt := median(tr.lat[depthDriver][c]), median(tr.lat[depthHandle][c]), median(tr.lat[depthExecStmt][c])
		m["driver.self_us_p50."+c.String()] = st.driver
		m["server.handle_self_us_p50."+c.String()] = st.server
		m["sqlx.parse_us_p50."+c.String()] = median(tr.parseUs[c])
		m["plan.plan_us_p50."+c.String()] = st.plan
		m["cluster.execstmt_us_p50."+c.String()] = execStmt
		r.Notes = append(r.Notes, fmt.Sprintf("%s: median us through driver %.1f (n=%d), Server.Handle %.1f (n=%d), Session.ExecStmt %.1f (n=%d); self times sum to %.0f%% of the first; statement cache hit %.0f%%",
			c, full, len(tr.lat[depthDriver][c]), handle, len(tr.lat[depthHandle][c]), execStmt, len(tr.lat[depthExecStmt][c]),
			100*st.sum()/full, 100*ratioOf(tr.hitsBy[c], tr.stmtsBy[c])))
	}
	if w.hop > 0 {
		for _, c := range wanClasses {
			m["transport.serial_hops_per_op."+c.String()] = (median(ref.lat[c]) - median(flat.lat[c])) / (float64(w.hop) / 1e6)
		}
		const naps = 20
		t0 := time.Now()
		for i := 0; i < naps; i++ {
			time.Sleep(100 * time.Microsecond)
		}
		r.Notes = append(r.Notes, fmt.Sprintf("timer floor: time.Sleep(100us) takes %.2f ms here, so a hop shorter than that measures the timer", time.Since(t0).Seconds()*1000/naps))
	}

	ops, d := ref.perOp(w), ref.delta
	per := func(v float64) float64 { return v / ops }
	m["driver.retries_per_kop"] = per(float64(d.retries)) * 1000
	m["driver.reconnects"] = float64(d.reconnects)
	m["driver.shed_final"] = float64(d.shedFinal)
	m["server.req_decode_ns"] = median(tr.reqDecodeNs)
	m["server.resp_encode_ns_per_row"] = ratioOf(tr.respEncodeNs, tr.respRows)
	m["server.normalize_ns"] = median(tr.normalizeNs)
	m["server.stmt_cache_hit_ratio"] = ratioOf(d.cacheHits, d.stmts)
	m["server.admit_queued_ratio"] = ratioOf(d.queued, d.admitted)
	m["server.admit_shed"] = float64(d.shed)
	m["cluster.rows_shipped_per_op"] = ratioOf(tr.shippedRows, tr.shippedOps)
	m["cluster.filter_ms_p50"] = median(ref.lat[clFilter])
	m["cluster.sort_ms_p50"] = median(ref.lat[clSort])
	m["cluster.join_bcast_ms_p50"] = median(ref.lat[clJoinBcast])
	m["cluster.versions_per_live_row"] = ref.bloat
	if ref.txns > 0 {
		m["gtm.requests_per_txn"] = float64(d.gtm) / float64(ref.txns)
	}
	m["transport.bytes_per_op"] = per(float64(d.fabric.TotalBytes()))
	for _, t := range transport.MsgTypes() {
		ts := d.fabric.Get(t)
		m["transport."+t.String()+"_msgs_per_op"] = per(float64(ts.Count))
		m["transport."+t.String()+"_bytes_per_op"] = per(float64(ts.Bytes))
	}
	m["colstore.segments_scanned_ratio"] = ratioOf(d.scans.SegmentsScanned, d.scans.SegmentsScanned+d.scans.SegmentsPruned)
	m["colstore.rows_scanned_per_op"] = per(float64(d.scans.RowsScanned))
	m["colstore.bytes_per_row"] = ref.bytesPerRow
	m["htap.lag_records_max"] = float64(ref.lag.max)
	m["htap.lag_records_mean"] = ratioOf(ref.lag.sum, ref.lag.n)
	m["htap.apply_records_per_s"] = float64(d.applied) / ref.wall.Seconds()
	m["htap.offloaded_ratio"] = ratioOf(d.offloaded, int64(len(ref.lat[clAgg])))
	if !w.htap {
		m["htap.offloaded_ratio"] = 0
	}
	m["htap.degraded"] = float64(d.degraded)
	m["htap.gate_blocks"] = float64(d.blocks)
	m["htap.gate_timeouts"] = float64(d.timers)
	m["process.cpu_ms_per_kop"] = per(float64(d.cpu)/1e6) * 1000
	m["process.allocs_per_op"] = per(float64(d.mallocs))
	m["process.gc_pause_ms"] = float64(d.gcPause) / 1e6
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	m["process.peak_rss_mb"] = float64(ru.Maxrss) / 1024
	m["process.goroutines_at_end"] = float64(runtime.NumGoroutine())
	// Tracing overhead: throughput of the traced run's full-depth third
	// against the untraced reference, both as operations per second of
	// time spent inside the stack (the inverse of the mean latency).
	var refMs []float64
	for c := range ref.lat {
		refMs = append(refMs, ref.lat[c]...)
	}
	if len(refMs) > 0 && len(tracedMs) > 0 {
		m["bench.trace_overhead_ratio"] = mean(refMs) / mean(tracedMs)
	}

	for _, lm := range unboundedLatencies {
		m[lm.name], _ = lm.stat(full.lat[lm.class]) // 0 when unsupported, as below
	}

	for _, def := range perLayer() {
		r.Metrics[def.name] = metric{Value: m[def.name], Unit: def.unit} // a layer the workload does not reach reports 0
	}
	return r, tracers, r.checkComplete(perLayer())
}

func ratioOf(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// contractLine renders the result as the benchmark contract's last line.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]mv{}}
	for k, m := range r.Metrics {
		line.Metrics[k] = mv{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // every value was checked finite
	}
	return string(b)
}

// printTable prints every metric of r by name and unit; metrics that only
// repeat the headline are left to the JSON line.
func printTable(r *result) {
	defs := endToEnd()
	if r.Trace == 1 {
		defs = perLayer()
	}
	fmt.Printf("== %s (seed %d, trace %d): %d operations attempted, %d failed, outputs correct\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, d := range defs {
		m := r.Metrics[d.name]
		if r.Trace == 0 && !r.native(d.name) {
			continue
		}
		if r.Trace == 1 && m.Value == 0 {
			continue
		}
		n := ""
		if m.Samples > 0 {
			n = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Printf("  %-44s %14.4f %s%s\n", d.name, m.Value, m.Unit, n)
	}
	for _, note := range r.Notes {
		fmt.Println("  *", note)
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func writeResults(path string, runs []*result) error {
	b, err := json.MarshalIndent(resultFile{runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
