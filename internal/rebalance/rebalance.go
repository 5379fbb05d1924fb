// Package rebalance orchestrates online cluster expansion: it drives the
// per-bucket migration primitive of internal/cluster (copy / freeze / drain
// / delta / flip) across a whole expansion plan with a bounded worker pool,
// per-move retries, optional throttling, and progress metrics.
//
// The paper's FI-MPPDB is a shared-nothing MPP cluster whose elasticity
// story is exactly this: add data nodes, then migrate hash buckets to them
// in the background while transactions keep flowing.
package rebalance

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cluster"
)

// Metrics receives rebalance observability samples. *autonomous.InfoStore
// satisfies it, so the autopilot can watch expansions.
type Metrics interface {
	Record(metric string, value float64)
}

// Options tunes a Rebalancer.
type Options struct {
	// MaxConcurrentMoves bounds in-flight bucket moves (default 4). Each
	// move briefly freezes one bucket, so this is the blast-radius knob.
	MaxConcurrentMoves int
	// MaxRetries re-runs a bucket move that failed retryably — target or
	// source down, drain timeout — this many times (default 3).
	MaxRetries int
	// RetryBackoff sleeps before each retry (default 10ms).
	RetryBackoff time.Duration
	// FailoverWait bounds how long a move blocked by a fenced shard
	// (cluster.ErrShardFenced: the node is down with standbys attached, a
	// promotion is in flight) waits for the failover to complete before
	// giving up (default 10s). Fence waits poll ShardFenced instead of
	// burning retry attempts, and a move whose target was retired by the
	// promotion re-targets the successor.
	FailoverWait time.Duration
	// Metrics, when set, receives rebalance.buckets_moved,
	// rebalance.rows_copied (cumulative counts) and rebalance.move_ms
	// (per-move latency).
	Metrics Metrics
}

func (o Options) withDefaults() Options {
	if o.MaxConcurrentMoves <= 0 {
		o.MaxConcurrentMoves = 4
	}
	if o.MaxRetries <= 0 {
		o.MaxRetries = 3
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 10 * time.Millisecond
	}
	if o.FailoverWait <= 0 {
		o.FailoverWait = 10 * time.Second
	}
	return o
}

// Move is one planned bucket migration.
type Move struct {
	Bucket int
	Target int
}

// Progress is a point-in-time snapshot of a rebalance.
type Progress struct {
	// Planned counts buckets submitted for migration.
	Planned int
	// Moved counts buckets whose cutover committed.
	Moved int
	// Failed counts buckets given up on after MaxRetries.
	Failed int
	// RowsCopied totals rows shipped to targets (copy + delta phases).
	RowsCopied int
	// Retries counts extra attempts spent on retryable failures.
	Retries int
	// FenceWaits counts moves that paused for an in-flight failover
	// (cluster.ErrShardFenced) instead of burning a retry.
	FenceWaits int
}

// Rebalancer migrates buckets on a cluster.
type Rebalancer struct {
	c   *cluster.Cluster
	opt Options

	mu   sync.Mutex
	prog Progress
}

// New builds a Rebalancer.
func New(c *cluster.Cluster, opt Options) *Rebalancer {
	return &Rebalancer{c: c, opt: opt.withDefaults()}
}

// Progress returns the current counters.
func (r *Rebalancer) Progress() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prog
}

func (r *Rebalancer) record(metric string, v float64) {
	if r.opt.Metrics != nil {
		r.opt.Metrics.Record(metric, v)
	}
}

// MoveBuckets runs the given moves through a worker pool, retrying each
// retryable failure up to MaxRetries times. It returns the joined errors of
// buckets that never made it; nil means every bucket migrated.
func (r *Rebalancer) MoveBuckets(moves []Move) error {
	r.mu.Lock()
	r.prog.Planned += len(moves)
	r.mu.Unlock()

	work := make(chan Move)
	errCh := make(chan error, len(moves))
	var wg sync.WaitGroup
	for w := 0; w < r.opt.MaxConcurrentMoves; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for mv := range work {
				errCh <- r.moveOne(mv)
			}
		}()
	}
	for _, mv := range moves {
		work <- mv
	}
	close(work)
	wg.Wait()
	close(errCh)

	var errs []error
	for err := range errCh {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// moveOne migrates one bucket with retries. A move blocked by a fenced
// shard (a primary down with standbys attached — an in-flight failover)
// does not burn retry attempts: it waits for the promotion to complete,
// re-targets the successor if its target was the node that died, and
// tries again.
func (r *Rebalancer) moveOne(mv Move) error {
	var lastErr error
	fenceDeadline := time.Now().Add(r.opt.FailoverWait)
	for attempt := 0; attempt <= r.opt.MaxRetries; {
		start := time.Now()
		rows, err := r.c.MoveBucket(mv.Bucket, mv.Target)
		if err == nil {
			r.mu.Lock()
			r.prog.Moved++
			r.prog.RowsCopied += rows
			moved, copied := r.prog.Moved, r.prog.RowsCopied
			r.mu.Unlock()
			r.record("rebalance.buckets_moved", float64(moved))
			r.record("rebalance.rows_copied", float64(copied))
			r.record("rebalance.move_ms", float64(time.Since(start).Microseconds())/1000)
			return nil
		}
		lastErr = err
		if errors.Is(err, cluster.ErrShardFenced) {
			if time.Now().After(fenceDeadline) {
				break // failover never completed; give up
			}
			r.mu.Lock()
			r.prog.FenceWaits++
			r.mu.Unlock()
			r.waitFenceResolved(mv, fenceDeadline)
			if s, ok := r.c.Successor(mv.Target); ok {
				mv.Target = s
			}
			continue
		}
		if !errors.Is(err, cluster.ErrRebalanceRetry) {
			break // non-retryable: bad bucket/target, plan bug
		}
		attempt++
		if attempt > r.opt.MaxRetries {
			break
		}
		r.mu.Lock()
		r.prog.Retries++
		r.mu.Unlock()
		time.Sleep(r.opt.RetryBackoff)
	}
	r.mu.Lock()
	r.prog.Failed++
	r.mu.Unlock()
	return fmt.Errorf("rebalance: bucket %d -> dn%d: %w", mv.Bucket, mv.Target, lastErr)
}

// waitFenceResolved polls until neither the bucket's current owner nor the
// move target is inside a failover window, or the deadline passes.
func (r *Rebalancer) waitFenceResolved(mv Move, deadline time.Time) {
	for time.Now().Before(deadline) {
		owner := r.c.BucketOwners()[mv.Bucket]
		tgtFenced := r.c.ShardFenced(mv.Target)
		if _, ok := r.c.Successor(mv.Target); ok {
			// A retired target resolves by re-targeting, not by waiting.
			tgtFenced = false
		}
		if !r.c.ShardFenced(owner) && !tgtFenced {
			return
		}
		time.Sleep(r.opt.RetryBackoff)
	}
}

// ExpandTo grows the cluster to total data nodes, adding one node at a time
// and rebalancing its fair share of buckets onto it before adding the next.
// Data keeps serving throughout; on error the routing map reflects exactly
// the moves that committed.
func (r *Rebalancer) ExpandTo(total int) error {
	for r.c.DataNodeCount() < total {
		id, err := r.c.AddDataNode()
		if err != nil {
			return fmt.Errorf("rebalance: adding node %d: %w", r.c.DataNodeCount(), err)
		}
		plan := r.c.ExpansionPlan(id)
		moves := make([]Move, len(plan))
		for i, b := range plan {
			moves[i] = Move{Bucket: b, Target: id}
		}
		if err := r.MoveBuckets(moves); err != nil {
			return err
		}
	}
	return nil
}
