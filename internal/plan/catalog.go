// Package plan implements the FI-MPPDB query planner: name resolution,
// logical-to-physical plan construction, statistics-based cardinality
// estimation, and the hooks the learning optimizer (internal/planstore)
// uses to capture and reuse actual cardinalities (paper §II-C).
package plan

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/sqlx"
	"repro/internal/types"
)

// TableMeta describes one catalog table to the planner.
type TableMeta struct {
	Name   string
	Schema *types.Schema
	// DistKey is the hash-distribution column position, or -1 for
	// replicated/local tables.
	DistKey int
	Storage sqlx.StorageKind
	// PKCols are primary-key column positions (may be empty).
	PKCols []int
	Stats  *TableStats
}

// Catalog resolves table names. Implemented by the engine (internal/core)
// and by test fixtures.
type Catalog interface {
	Resolve(name string) (*TableMeta, error)
}

// Access produces scan operators for catalog tables. The engine implements
// this against its storage layer; the planner never touches storage
// directly.
type Access interface {
	// Scan returns an operator streaming the table's currently-visible
	// rows under the calling statement's snapshot; step is the instrumented
	// step they feed through a coordinator Filter (ScanPushdown.Step).
	Scan(t *TableMeta, step *exec.Counted) exec.Operator
}

// TopNPush asks the engine to sort each partition's rows under Keys and
// keep only the top Limit of them, and to emit the partitions merged in key
// order, ties to the lower partition — the planner puts no Sort above it.
// Keys are compiled against the row the scan emits: the table schema, or
// on a folded scan (ScanPushdown.Out) positions in the output row. An empty
// Keys means a bare LIMIT (keep the first Limit rows in scan order and stop
// early).
type TopNPush struct {
	Keys  []exec.SortKey
	Limit int64 // rows to keep per partition (already includes any OFFSET); < 0: all
}

// ScanPushdown carries everything the planner pushes into an NDP scan
// (near-data processing, Taurus-style). Pred is fixed when the scan is
// created, and so are Agg and Out, which fix the scan's output schema (the
// planner asks ScanNDP again for a scan it sets Out on); the remaining
// fields are filled in by later planning passes — projection analysis
// sets Cols, ORDER BY/LIMIT recognition sets TopN, and join analysis sets
// Bloom. The engine must therefore read the spec when the scan *opens*,
// not when it is constructed.
type ScanPushdown struct {
	// Pred is the pushed filter (AND of the single-table conjuncts), or
	// nil. NDP filtering is exact: the planner puts no Filter of its own on
	// top, so the scan must evaluate Pred on every row. Always
	// partition-pure.
	Pred exec.Expr
	// Cols lists the table column positions the plan references; the scan
	// ships only these. nil means ship all columns. Without Out the scan
	// emits table-width rows with NULLs in the unlisted columns, so column
	// indexes compiled against the table read the right slots; with Out it
	// fills the output positions whose column is listed.
	Cols []int
	// Out, when set, folds the query block's projection into the scan: it
	// emits OutSchema rows whose position i holds table column Out[i] (a
	// column may appear more than once), and no Project sits above it.
	Out       []int
	OutSchema *types.Schema
	// TopN, when set, orders the scan's output and bounds each partition's
	// share to the top rows a CN-side merge could ever keep.
	TopN *TopNPush
	// Bloom, when set, is filled by a downstream hash join with a filter
	// over its build-side keys before this scan opens; the scan drops rows
	// whose BloomCol datum cannot match (NULLs included — the join is
	// inner, so they can never produce output).
	Bloom    *exec.BloomHandle
	BloomCol int
	// Agg, when set, makes the scan the first phase of a two-phase
	// aggregate: each partition folds its surviving rows into groups and
	// ships one row per group instead of the rows themselves.
	Agg *AggPush
	// Step is the instrumented scan step the spec's rows feed: whatever runs
	// the spec — this scan, a pushed aggregate, a DN-side join's side —
	// counts into it what passes Pred (exec.Counted.Select).
	Step *exec.Counted
}

// AggPush asks the engine to aggregate each partition's surviving rows
// locally (DN-side reduction) — the classic MPP optimization behind the
// paper's "query planning and execution are optimized for large scale
// parallel processing". GroupBy and Aggs are compiled against the table
// schema; every aggregate is mergeable. Each fragment ships rows laid out as
// Out: the group values followed by the partial results, which a
// coordinator Agg above the scan merges.
type AggPush struct {
	GroupBy []exec.Expr
	Aggs    []exec.AggSpec
	Out     *types.Schema
}

// NDPAccess is the near-data-processing Access extension: the engine
// evaluates pushed filters against vectorized column batches on each
// partition, ships only referenced columns, caps output with a bounded
// TopN heap or folds it into partial aggregates, and probes sideways bloom
// filters — so scan fragments carry pre-reduced batches instead of
// full-width row streams.
type NDPAccess interface {
	Access
	// ScanNDP returns a pushdown-capable scan honoring spec (whose Cols/
	// TopN/Bloom fields may be filled after this call, see ScanPushdown),
	// or ok=false to fall back to Scan under a coordinator Filter (to the
	// coordinator Agg, for a spec with Agg).
	ScanNDP(t *TableMeta, spec *ScanPushdown) (exec.Operator, bool)
}

// Hooks supplies the multi-model table-function compilers (paper §II-B).
// Each compiles its table function's argument, a call chain
// (sqlx.ParseChain), into a query block over tables in cat, which the
// planner plans as a derived table. A nil hook makes the corresponding
// table function an error.
type Hooks struct {
	// GGraph compiles a Gremlin traversal over a graph's two tables.
	GGraph func(chain string, cat Catalog) (*sqlx.Select, error)
	// GSpatial compiles a bbox / radius / nearest query over a points table.
	GSpatial func(chain string, cat Catalog) (*sqlx.Select, error)
}

// Estimator is the learning-optimizer consumer interface: given a
// canonical step definition it may return a learned cardinality
// (paper §II-C, Fig 5 "consumer").
type Estimator interface {
	LookupStep(stepText string) (float64, bool)
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// HistogramBuckets is the equi-depth histogram resolution used by Analyze.
const HistogramBuckets = 32

// Bucket is one equi-depth histogram bucket: Count values <= Hi (and
// greater than the previous bucket's Hi).
type Bucket struct {
	Hi    types.Datum
	Count int64
}

// ColStats summarizes one column.
type ColStats struct {
	NDV      int64
	NullFrac float64
	Min, Max types.Datum
	Hist     []Bucket // only for orderable kinds; nil otherwise
}

// TableStats summarizes a table for costing.
type TableStats struct {
	Rows int64
	Cols []ColStats
}

// SelectivityLE estimates P(col <= v) from the histogram, falling back to
// defaults when stats are missing.
func (cs *ColStats) SelectivityLE(v types.Datum) float64 {
	if len(cs.Hist) == 0 || cs.Min.IsNull() {
		return DefaultRangeSelectivity
	}
	if c, err := types.Compare(v, cs.Min); err != nil || c < 0 {
		return 0
	}
	if c, err := types.Compare(v, cs.Max); err == nil && c >= 0 {
		return 1
	}
	var total, below int64
	for _, b := range cs.Hist {
		total += b.Count
		if c, err := types.Compare(b.Hi, v); err == nil && c <= 0 {
			below += b.Count
		}
	}
	if total == 0 {
		return DefaultRangeSelectivity
	}
	// Add half a bucket for the partially-covered bucket.
	frac := float64(below)/float64(total) + 0.5/float64(len(cs.Hist))
	if frac > 1 {
		frac = 1
	}
	return frac
}

// SelectivityEq estimates P(col = v).
func (cs *ColStats) SelectivityEq() float64 {
	if cs.NDV <= 0 {
		return DefaultEqSelectivity
	}
	return 1 / float64(cs.NDV)
}

// Default selectivities used when statistics are unavailable — the same
// magic constants classic System R-style optimizers use.
const (
	DefaultEqSelectivity    = 0.005
	DefaultRangeSelectivity = 1.0 / 3.0
	DefaultLikeSelectivity  = 0.1
	DefaultJoinSelectivity  = 0.01
)

// CostModel bundles the planner's no-statistics selectivity constants so
// tests (and embedders) can pin or perturb them per catalog instead of
// recompiling magic numbers.
type CostModel struct {
	EqSelectivity    float64
	RangeSelectivity float64
	LikeSelectivity  float64
	JoinSelectivity  float64
}

// DefaultCostModel returns the stock System R-style constants.
func DefaultCostModel() CostModel {
	return CostModel{
		EqSelectivity:    DefaultEqSelectivity,
		RangeSelectivity: DefaultRangeSelectivity,
		LikeSelectivity:  DefaultLikeSelectivity,
		JoinSelectivity:  DefaultJoinSelectivity,
	}
}

// CostCatalog is an optional Catalog extension supplying a custom cost
// model. Catalogs that do not implement it get DefaultCostModel.
type CostCatalog interface {
	Catalog
	Costs() CostModel
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

// ErrTableNotFound is returned by catalogs for unknown tables.
type ErrTableNotFound struct{ Name string }

func (e *ErrTableNotFound) Error() string {
	return fmt.Sprintf("plan: table %q does not exist", e.Name)
}

// ErrColumnNotFound is returned by the binder for unresolvable columns.
type ErrColumnNotFound struct{ Table, Column string }

func (e *ErrColumnNotFound) Error() string {
	if e.Table != "" {
		return fmt.Sprintf("plan: column %q of table %q does not exist", e.Column, e.Table)
	}
	return fmt.Sprintf("plan: column %q does not exist", e.Column)
}

// ErrAmbiguousColumn is returned when an unqualified column matches more
// than one FROM item.
type ErrAmbiguousColumn struct{ Column string }

func (e *ErrAmbiguousColumn) Error() string {
	return fmt.Sprintf("plan: column reference %q is ambiguous", e.Column)
}
