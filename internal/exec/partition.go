package exec

// Partitioner is the streaming seam between scan fragments and a
// partitioned hash join: writers hash rows into per-partition batches and
// push them through bounded per-(source,partition) FIFO queues; one
// consumer per partition drains its queues in source order. The bounds
// give backpressure — a shuffle never materializes a full intermediate,
// writers block once a consumer falls queueCap batches behind — and the
// fixed drain order keeps consumption deterministic for a fixed input
// order per source.

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// ErrPartitionerCanceled is returned by Write and Drain after Cancel.
var ErrPartitionerCanceled = errors.New("exec: partitioner canceled")

// pqueue is one bounded FIFO of row batches from one source to one
// partition.
type pqueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	batches [][]types.Row
	closed  bool
}

// Partitioner routes row batches from nSources writers to nParts
// consumers.
type Partitioner struct {
	nSources  int
	nParts    int
	batchRows int
	queueCap  int
	queues    []*pqueue // nSources × nParts, row-major by source
	canceled  atomic.Bool
	// onBatch, when set, observes every flushed batch before it is
	// enqueued — the hook where the engine charges fabric bytes and
	// injects faults. An error fails the writer.
	onBatch func(src, part int, rows []types.Row) error
}

// NewPartitioner creates a partitioner with the given fan-in/fan-out.
// batchRows is the flush threshold per (source,partition) pending batch;
// queueCap bounds each queue's depth in batches (≥1). onBatch may be nil.
func NewPartitioner(nSources, nParts, batchRows, queueCap int, onBatch func(src, part int, rows []types.Row) error) *Partitioner {
	if batchRows < 1 {
		batchRows = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	p := &Partitioner{
		nSources:  nSources,
		nParts:    nParts,
		batchRows: batchRows,
		queueCap:  queueCap,
		queues:    make([]*pqueue, nSources*nParts),
		onBatch:   onBatch,
	}
	for i := range p.queues {
		q := &pqueue{}
		q.cond = sync.NewCond(&q.mu)
		p.queues[i] = q
	}
	return p
}

func (p *Partitioner) queue(src, part int) *pqueue { return p.queues[src*p.nParts+part] }

// Cancel aborts all writers and drainers. Safe to call repeatedly and
// concurrently.
func (p *Partitioner) Cancel() {
	p.canceled.Store(true)
	for _, q := range p.queues {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// PartWriter is one source's write handle; not safe for concurrent use by
// multiple goroutines.
type PartWriter struct {
	p       *Partitioner
	src     int
	pending [][]types.Row
}

// Writer returns the write handle for source src.
func (p *Partitioner) Writer(src int) *PartWriter {
	return &PartWriter{p: p, src: src, pending: make([][]types.Row, p.nParts)}
}

// Write appends a row to partition part, flushing the pending batch when
// it reaches the batch size. Blocks while the target queue is full.
func (w *PartWriter) Write(part int, row types.Row) error {
	w.pending[part] = append(w.pending[part], row)
	if len(w.pending[part]) >= w.p.batchRows {
		return w.flush(part)
	}
	return nil
}

func (w *PartWriter) flush(part int) error {
	rows := w.pending[part]
	if len(rows) == 0 {
		return nil
	}
	w.pending[part] = nil
	if w.p.onBatch != nil {
		if err := w.p.onBatch(w.src, part, rows); err != nil {
			return err
		}
	}
	q := w.p.queue(w.src, part)
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.batches) >= w.p.queueCap {
		if w.p.canceled.Load() {
			return ErrPartitionerCanceled
		}
		q.cond.Wait()
	}
	if w.p.canceled.Load() {
		return ErrPartitionerCanceled
	}
	q.batches = append(q.batches, rows)
	q.cond.Broadcast()
	return nil
}

// Flush pushes every pending batch of this source into its queue without
// marking the queues complete: between Flush and Close the writer knows
// its whole output (onBatch has seen every batch) while no drainer can yet
// see the end of it — where a producer waits for its last batch to arrive.
func (w *PartWriter) Flush() error {
	var firstErr error
	for part := 0; part < w.p.nParts; part++ {
		if err := w.flush(part); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close flushes all pending batches of this source and marks its queues
// complete. Every writer must Close (even after an error) or drainers
// block forever.
func (w *PartWriter) Close() error {
	firstErr := w.Flush()
	for part := 0; part < w.p.nParts; part++ {
		q := w.p.queue(w.src, part)
		q.mu.Lock()
		q.closed = true
		q.cond.Broadcast()
		q.mu.Unlock()
	}
	return firstErr
}

// Drain consumes partition part: all batches of source 0 in FIFO order,
// then source 1, and so on — a fixed merge order, so output is
// deterministic for deterministic inputs. fn errors abort the drain.
func (p *Partitioner) Drain(part int, fn func(rows []types.Row) error) error {
	for src := 0; src < p.nSources; src++ {
		q := p.queue(src, part)
		for {
			q.mu.Lock()
			for len(q.batches) == 0 && !q.closed && !p.canceled.Load() {
				q.cond.Wait()
			}
			if p.canceled.Load() {
				q.mu.Unlock()
				return ErrPartitionerCanceled
			}
			if len(q.batches) == 0 { // closed and empty → next source
				q.mu.Unlock()
				break
			}
			rows := q.batches[0]
			q.batches = q.batches[1:]
			q.cond.Broadcast()
			q.mu.Unlock()
			if err := fn(rows); err != nil {
				return err
			}
		}
	}
	return nil
}
