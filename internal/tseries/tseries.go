// Package tseries documents the multi-model database's time-series model
// (paper §II-B). A time series is an ordinary cluster table,
//
//	CREATE TABLE <s> (ts TIMESTAMP, value DOUBLE, <tag> TEXT, ...) DISTRIBUTE BY ...
//
// so its samples get snapshots, 2PC, standbys, HTAP replicas and bucket
// moves like any other rows. Samples are ingested with INSERT (a multi-row
// INSERT is one message per target data node), trimmed to a retention
// horizon with DELETE ... WHERE ts < ..., and read with
// gtimeseries(SELECT ... FROM <s> WHERE ...), which is its inner query
// sorted on its first TIMESTAMP column; the time-range predicate runs in
// the data nodes' scan fragments. Windowed aggregates — the paper's
// pre-aggregation of device data (§IV-B3) — are GROUP BY over the bucket
// number, e.g. GROUP BY (now() - ts) / 60000000000 for one-minute buckets
// counted back from the statement's clock.
//
// The package holds no code; its tests pin these idioms against in-test
// oracles.
package tseries
