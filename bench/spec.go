package main

import "fmt"

// class is one kind of operation a client issues. A latency sample always
// belongs to exactly one class; per-class per-layer metrics are named
// "<metric>.<class>".
type class uint8

const (
	clRead class = iota
	clUpdate
	clNewOrder
	clPayment
	clAgg
	clFilter
	clTopN
	clSort
	clJoinColocated
	clJoinBcast
	clJoinShuffle
	numClasses
)

var classNames = [numClasses]string{
	"read", "update", "neworder", "payment", "agg", "filter", "topn", "sort",
	"join_colocated", "join_bcast", "join_shuffle",
}

func (c class) String() string { return classNames[c] }

// wanClasses are the classes the wan workload runs; serial hops are
// defined for these only.
var wanClasses = []class{clRead, clUpdate, clNewOrder, clPayment, clAgg, clTopN, clJoinColocated, clJoinShuffle}

// metricDef names one metric, its unit and its direction.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// latencyMetric ties a latency metric to its class and to the statistic of
// the class's timings it reports; the statistic answers false when the
// samples do not support it.
type latencyMetric struct {
	name  string
	class class
	stat  func(samples []float64) (float64, bool)
}

func p50(samples []float64) (float64, bool) { return percentile(samples, 50) }
func p99(samples []float64) (float64, bool) { return percentile(samples, 99) }

func meanOf(samples []float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	return mean(samples), true
}

// latencyMetrics are the end-to-end latencies. A transaction is reported by
// its mean: its latency climbs through an epoch as the version heaps grow
// and differs by data node, so the distribution is broad with valleys, the
// median sits in one, and over ten runs it spread 10-20 % where the mean
// spread 3-6 %. Every other class is compact and reported by its median.
var latencyMetrics = []latencyMetric{
	{"read_ms_p50", clRead, p50},
	{"update_ms_p50", clUpdate, p50},
	{"neworder_ms_mean", clNewOrder, meanOf},
	{"payment_ms_mean", clPayment, meanOf},
	{"agg_ms_p50", clAgg, p50},
	{"topn_ms_p50", clTopN, p50},
	{"join_colocated_ms_p50", clJoinColocated, p50},
	{"join_shuffle_ms_p50", clJoinShuffle, p50},
}

// unboundedLatencies are the statistics that cannot hold a bound on a
// shared machine (tails move with whatever else the host runs; for the
// transactions' medians see latencyMetrics). The traced run reports them,
// unbounded, from one untraced epoch run as the end-to-end run runs it.
var unboundedLatencies = []latencyMetric{
	{"read_ms_p99", clRead, p99},
	{"update_ms_p99", clUpdate, p99},
	{"neworder_ms_p50", clNewOrder, p50},
	{"neworder_ms_p99", clNewOrder, p99},
	{"payment_ms_p50", clPayment, p50},
}

// endToEnd lists the 13 end-to-end metrics in output order.
func endToEnd() []metricDef {
	defs := []metricDef{
		{"setup_s", "s", "lower"},
		{"throughput_ops_s", "1/s", "higher"},
		{"ok_ratio", "ratio", "higher"},
	}
	for _, lm := range latencyMetrics {
		defs = append(defs, metricDef{lm.name, "ms", "lower"})
	}
	return append(defs,
		metricDef{"alloc_kb_per_op", "KB", "lower"},
		metricDef{"fabric_msgs_per_op", "count", "lower"},
	)
}

// perClassLayer are the per-layer metrics reported once per class.
var perClassLayer = []metricDef{
	{"driver.self_us_p50", "us", "lower"},
	{"server.handle_self_us_p50", "us", "lower"},
	{"sqlx.parse_us_p50", "us", "lower"},
	{"plan.plan_us_p50", "us", "lower"},
	{"cluster.execstmt_us_p50", "us", "lower"},
}

// tracedMsgTypes and tracedByteTypes select the fabric message types the
// transport layer reports per operation.
var (
	tracedMsgTypes  = []string{"client_req", "snapshot_req", "gtm_round", "scan_frag", "write", "prepare", "commit", "shuffle_part", "bcast_build"}
	tracedByteTypes = []string{"scan_frag", "shuffle_part", "bcast_build"}
)

// perLayer lists every per-layer metric in output order (123 names).
func perLayer() []metricDef {
	var defs []metricDef
	for _, m := range perClassLayer {
		for _, c := range classNames {
			defs = append(defs, metricDef{m.name + "." + c, m.unit, m.better})
		}
	}
	for _, c := range wanClasses {
		defs = append(defs, metricDef{"transport.serial_hops_per_op." + c.String(), "count", "lower"})
	}
	defs = append(defs,
		metricDef{"driver.retries_per_kop", "count", "lower"},
		metricDef{"driver.reconnects", "count", "lower"},
		metricDef{"driver.shed_final", "count", "lower"},
		metricDef{"server.req_decode_ns", "ns", "lower"},
		metricDef{"server.resp_encode_ns_per_row", "ns", "lower"},
		metricDef{"server.normalize_ns", "ns", "lower"},
		metricDef{"server.stmt_cache_hit_ratio", "ratio", "higher"},
		metricDef{"server.admit_queued_ratio", "ratio", "lower"},
		metricDef{"server.admit_shed", "count", "lower"},
		metricDef{"sqlx.parse_allocs", "count", "lower"},
		metricDef{"cluster.rows_shipped_per_op", "count", "lower"},
		metricDef{"cluster.filter_ms_p50", "ms", "lower"},
		metricDef{"cluster.sort_ms_p50", "ms", "lower"},
		metricDef{"cluster.join_bcast_ms_p50", "ms", "lower"},
		metricDef{"cluster.versions_per_live_row", "ratio", "lower"},
		metricDef{"gtm.requests_per_txn", "count", "lower"},
		metricDef{"txnkit.merge_snapshot_ns", "ns", "lower"},
		metricDef{"transport.bytes_per_op", "B", "lower"},
	)
	for _, t := range tracedMsgTypes {
		defs = append(defs, metricDef{"transport." + t + "_msgs_per_op", "count", "lower"})
	}
	for _, t := range tracedByteTypes {
		defs = append(defs, metricDef{"transport." + t + "_bytes_per_op", "B", "lower"})
	}
	defs = append(defs,
		metricDef{"storage.scan_ns_per_row", "ns", "lower"},
		metricDef{"storage.lookup_eq_ns", "ns", "lower"},
		metricDef{"storage.update_us", "us", "lower"},
		metricDef{"colstore.scan_ns_per_row", "ns", "lower"},
		metricDef{"colstore.segments_scanned_ratio", "ratio", "lower"},
		metricDef{"colstore.rows_scanned_per_op", "count", "lower"},
		metricDef{"colstore.bytes_per_row", "B", "lower"},
		metricDef{"exec.agg_ns_per_row", "ns", "lower"},
		metricDef{"exec.sort_ns_per_row", "ns", "lower"},
		metricDef{"exec.hashjoin_ns_per_row", "ns", "lower"},
		metricDef{"exec.topn_ns_per_row", "ns", "lower"},
		metricDef{"exec.partitioner_ns_per_row", "ns", "lower"},
		metricDef{"htap.lag_records_max", "count", "lower"},
		metricDef{"htap.lag_records_mean", "count", "lower"},
		metricDef{"htap.apply_records_per_s", "1/s", "higher"},
		metricDef{"htap.offloaded_ratio", "ratio", "higher"},
		metricDef{"htap.degraded", "count", "lower"},
		metricDef{"htap.gate_blocks", "count", "lower"},
		metricDef{"htap.gate_timeouts", "count", "lower"},
		metricDef{"process.cpu_ms_per_kop", "ms", "lower"},
		metricDef{"process.allocs_per_op", "count", "lower"},
		metricDef{"process.gc_pause_ms", "ms", "lower"},
		metricDef{"process.peak_rss_mb", "MB", "lower"},
		metricDef{"process.goroutines_at_end", "count", "lower"},
		metricDef{"bench.trace_overhead_ratio", "ratio", "higher"},
	)
	for _, lm := range unboundedLatencies {
		defs = append(defs, metricDef{lm.name, "ms", "lower"})
	}
	return defs
}

// metric is one reported value. samples is the number of timings behind a
// percentile (0 for counters and ratios).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload: the object the contract's last
// stdout line carries (without Samples) plus what -out and -compare need.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are findings printed under the table that are no metric: the
	// traced run's per-class medians at each depth, cache hits, timer floor.
	Notes []string `json:"notes,omitempty"`
}

// checkComplete reports an error unless r carries exactly the metrics of
// defs, each finite and in its declared unit.
func (r *result) checkComplete(defs []metricDef) error {
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("%s: %d metrics reported, %d declared", r.Workload, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		switch {
		case !ok:
			return fmt.Errorf("%s: metric %s missing", r.Workload, d.name)
		case m.Unit != d.unit:
			return fmt.Errorf("%s: metric %s in %q, declared %q", r.Workload, d.name, m.Unit, d.unit)
		case m.Value != m.Value || m.Value > 1e300 || m.Value < -1e300:
			return fmt.Errorf("%s: metric %s is not finite", r.Workload, d.name)
		}
	}
	return nil
}
