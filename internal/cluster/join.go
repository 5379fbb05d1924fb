package cluster

// Distributed join execution (paper §II-A): the engine side of
// plan.DistJoinAccess. Three strategies, all running the join's build and
// probe "on the data nodes" and shipping only join results to the
// coordinator:
//
//   - co-located: every target DN hash-joins its own partitions (both
//     sides' keys align with the 256-bucket map, or one side is
//     replicated and therefore locally present everywhere). Nothing but
//     results crosses the fabric.
//   - broadcast: every build source streams its rows to every target DN
//     (bcast_build messages); each DN probes with its local probe
//     partition.
//   - shuffle: both inputs hash-partition by join key across the target
//     DNs (shuffle_part messages for every batch that changes nodes); each
//     DN joins one key range.
//
// Broadcast and shuffle are one exchange (exchangeJoin) through bounded,
// backpressured exec.Partitioner queues: they differ only in how build rows
// are routed and whether the probe side is exchanged at all. A DN that has
// its whole build table before it scans its probe partition (co-located,
// broadcast) filters that scan with the table's bloom filter, so a probe row
// that cannot match is never materialized.
//
// Side scans run the one fragment program (ndpProgram.run) with a row sink
// over sources resolved by fragSource, so pushed predicates, projections,
// HTAP replica and standby routing and MoveBucket ownership fencing all
// compose — a join side reads precisely the rows a plain scan of that side
// would ship, and counts them into the side's step as that scan would.
// Each target's share runs in the fragment envelope a scan runs in
// (stmtAccess.fragment): one request, the joined rows, one reply. Every
// strategy emits rows through an Exchange (merged in fragment order) and
// scans sources in a fixed order, so results are identical across
// strategies and parallel degrees.

import (
	"errors"
	"hash/fnv"
	"sync"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/transport"
	"repro/internal/types"
)

const (
	// shuffleBatchRows is the row count per shuffle_part / bcast_build
	// batch.
	shuffleBatchRows = 128
	// shuffleQueueCap bounds each (source,partition) queue in batches —
	// the backpressure window; an exchange never holds more than
	// sources × partitions × cap × batch rows in flight.
	shuffleQueueCap = 4
)

// JoinScan implements plan.DistJoinAccess.
func (a *stmtAccess) JoinScan(spec *plan.DistJoinSpec) (exec.Operator, bool) {
	if !a.scatter {
		// Routed (single-shard) statements already touch one DN; the CN
		// join over routed scans is the right plan.
		return nil, false
	}
	switch spec.Strategy {
	case plan.DistColocated:
		return a.colocatedJoin(spec), true
	case plan.DistBroadcast:
		if spec.Probe.Meta.DistKey < 0 {
			// A replicated probe would be probed once per DN, duplicating
			// output; the planner only gets here under Force.
			return nil, false
		}
		return a.exchangeJoin(spec), true
	case plan.DistShuffle:
		return a.exchangeJoin(spec), true
	default:
		return nil, false
	}
}

// joinSide is one resolved input of a distributed join.
type joinSide struct {
	ti   *TableInfo
	prog *ndpProgram
	keys []exec.Expr
	// srcs are the side's resolved scan fragments in deterministic order:
	// srcs[i] yields the rows targets[i] owns, from whichever copy
	// fragSource chose — or, for a replicated table, a single fragment
	// (scanning the whole table more than once would duplicate rows).
	srcs []fragSource
}

// scan streams one resolved fragment of the side through deliver (false
// stops the scan early), dropping the rows bf rejects (nil: none), with no
// transport accounting — the caller charges whatever wire the strategy
// actually uses.
func (side joinSide) scan(ctx *exec.Ctx, src fragSource, bf *exec.Bloom, deliver func(types.Row) bool) error {
	return side.prog.run(ctx, src, bf, fragSink{rows: deliver})
}

// resolveJoin resolves both sides and the target set at Exchange-open time
// (the pushdown specs are final by then — late binding, like ScanNDP) and
// checks liveness of every node involved. Caller must hold routeMu.
func (a *stmtAccess) resolveJoin(spec *plan.DistJoinSpec) (probe, build joinSide, targets []int, err error) {
	c := a.s.c
	targets = c.scanTargetsLocked()
	if len(targets) == 0 {
		return probe, build, nil, ErrNodeDown
	}
	if err = c.requireLive(targets...); err != nil {
		return
	}
	sideFor := func(s plan.DistJoinSide) (side joinSide, err error) {
		if side.ti, err = c.tableInfo(s.Meta.Name); err != nil {
			return
		}
		side.prog, side.keys = a.compileNDP(side.ti, s.Spec), s.Keys
		side.prog.step.Restart()
		owners := targets
		if side.ti.replicated {
			owners = targets[:1]
		}
		side.srcs = make([]fragSource, len(owners))
		for i, p := range owners {
			if side.srcs[i], err = a.fragSource(side.ti, p); err != nil {
				return
			}
		}
		return
	}
	if probe, err = sideFor(spec.Probe); err != nil {
		return
	}
	// A DN that holds its whole build table before it scans its probe
	// partition probes the table's bloom filter with a bare-column key
	// (probeLocal); a shuffle's probe rows are scanned while the build
	// is still arriving.
	if len(spec.Probe.Keys) == 1 && spec.Strategy != plan.DistShuffle {
		if cr, ok := spec.Probe.Keys[0].(*exec.ColRef); ok {
			probe.prog.bloomCol = cr.Index
			probe.prog.need(cr.Index)
		}
	}
	build, err = sideFor(spec.Build)
	return
}

// scanSideLocal streams the share of a join side that lives with
// targets[i]: the node's own copy of a replicated table (counted for the
// side's step on the first target only), otherwise the fragment of the rows
// it owns.
func (a *stmtAccess) scanSideLocal(ctx *exec.Ctx, side joinSide, i, target int, bf *exec.Bloom, deliver func(types.Row) bool) error {
	if !side.ti.replicated {
		return side.scan(ctx, side.srcs[i], bf, deliver)
	}
	src, err := a.fragSource(side.ti, target)
	if err != nil {
		return err
	}
	return side.prog.run(ctx, src, bf, fragSink{rows: deliver, copy: i > 0})
}

// probeEmit returns a probe-row callback that joins each row against the
// build table and ships the joined rows. Once it returns false, the returned
// error says why: the join's own error, or errStopped when ship declined.
func probeEmit(ctx *exec.Ctx, spec *plan.DistJoinSpec, table *exec.JoinTable, ship func(types.Row) bool) (func(types.Row) bool, *error) {
	probe := table.Probe(exec.InnerJoin, spec.Probe.Keys, nil, 0)
	errp := new(error)
	return func(pr types.Row) bool {
		if *errp = probe.Start(ctx, pr); *errp != nil {
			return false
		}
		for {
			joined, ok, err := probe.Next(ctx)
			if err != nil {
				*errp = err
				return false
			}
			if !ok {
				return true
			}
			if !ship(joined) {
				*errp = errStopped
				return false
			}
		}
	}, errp
}

// probeLocal joins the probe side's share on targets[i] against the built
// table, shipping the joined rows. When the probe program has a bloom column
// the scan drops, before materializing them, the rows the table's bloom
// filter rejects — a DN-side semi-join with what the DN itself built.
func (a *stmtAccess) probeLocal(ctx *exec.Ctx, spec *plan.DistJoinSpec, probe joinSide, i, target int, table *exec.JoinTable, ship func(types.Row) bool) error {
	var bf *exec.Bloom
	if probe.prog.bloomCol >= 0 {
		var err error
		if bf, err = table.Bloom(ctx, 0); err != nil {
			return err
		}
	}
	pe, probeErr := probeEmit(ctx, spec, table, ship)
	if err := a.scanSideLocal(ctx, probe, i, target, bf, pe); err != nil {
		return err
	}
	return *probeErr
}

// joinResultWidth is the wire width of one joined row (probe + build
// projected datums).
func joinResultWidth(probe, build joinSide) int {
	return probe.prog.shipWidth() + build.prog.shipWidth()
}

// ---------------------------------------------------------------------------
// Co-located
// ---------------------------------------------------------------------------

// colocatedJoin runs the whole join inside each target DN: build from the
// local build-side partition, probe with the local probe-side partition.
// Correct because matching keys always live in the same bucket (aligned
// distribution keys) or the build/probe side is replicated on every node.
func (a *stmtAccess) colocatedJoin(spec *plan.DistJoinSpec) exec.Operator {
	c := a.s.c
	return exec.NewParallelSource("join:colocated", spec.Out, c.parallelDegree(), func() ([]exec.Fragment, error) {
		probe, build, targets, err := a.resolveJoin(spec)
		if err != nil {
			return nil, err
		}
		width := joinResultWidth(probe, build)
		frags := make([]exec.Fragment, len(targets))
		for i, p := range targets {
			frags[i] = func(ctx *exec.Ctx, emit func(types.Row) bool) error {
				// One fragment carries the whole join.
				return a.fragment(p, 0, width, emit, func(out *shipment) error {
					table := exec.NewJoinTable(spec.Build.Keys)
					var buildErr error
					if err := a.scanSideLocal(ctx, build, i, p, nil, func(r types.Row) bool {
						buildErr = table.Add(ctx, r)
						return buildErr == nil
					}); err != nil {
						return err
					}
					if buildErr != nil {
						return buildErr
					}
					return a.probeLocal(ctx, spec, probe, i, p, table, out.ship)
				})
			}
		}
		return frags, nil
	})
}

// ---------------------------------------------------------------------------
// Broadcast and shuffle
// ---------------------------------------------------------------------------

// shufflePart maps an encoded join key to a target index. The FNV sum is
// mixed before the modulo: FNV-1a's low bits depend only on the low bits of
// each input byte, and so do the placement hash's, so unmixed and at a
// power-of-two target count integer keys partition mostly onto the node that
// already stores them — one oversized local stream per producer, which
// overruns its queue window and serializes the producers behind Drain's
// source order (+4 hops on a wan shuffle).
func shufflePart(key []byte, n int) int {
	h := fnv.New64a()
	h.Write(key)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x % uint64(n))
}

// exchangeJoin runs the two strategies whose build rows change nodes.
// Producer goroutines — one per build source fragment and, under shuffle,
// one per probe source fragment, so at most one per DN and side — scan their
// fragment and write rows into per-(source,target) bounded queues: a shuffle
// routes each row to the target its key hashes to, a broadcast routes every
// build row to every target. Every batch that changes nodes is a
// shuffle_part or bcast_build message on the producer's stream, which the
// producer pays for once, after its last batch. One consumer fragment per
// target drains its build queues into a hash table, then probes it: with its
// probe queues under shuffle, with its own probe partition under broadcast
// (probeLocal). Both ends must all run at once for progress: producers block
// on full queues, and Partitioner.Drain consumes sources strictly in order,
// so a producer held back (by any admission cap) while a later one fills its
// queue deadlocks the join. ParallelDegree therefore does not apply here.
func (a *stmtAccess) exchangeJoin(spec *plan.DistJoinSpec) exec.Operator {
	c := a.s.c
	bcast := spec.Strategy == plan.DistBroadcast
	return &exec.Exchange{
		Name:     "join:" + spec.Strategy.String(),
		Out:      spec.Out,
		Parallel: 1 << 20, // every consumer must run; see doc comment
		Plan: func() ([]exec.Fragment, error) {
			probe, build, targets, err := a.resolveJoin(spec)
			if err != nil {
				return nil, err
			}
			width := joinResultWidth(probe, build)

			// Per-side partitioners; the onBatch hook posts every batch that
			// changes nodes on its producer's stream (and is where injected
			// faults surface, failing the producer). A producer does not stop
			// and wait per batch: it pays for the stream, once, in produce.
			var parts []*exec.Partitioner
			sideParts := func(side *joinSide, kind transport.MsgType) (*exec.Partitioner, []transport.Stream) {
				streams := make([]transport.Stream, len(side.srcs))
				for i := range streams {
					streams[i] = c.fab.Stream()
				}
				p := exec.NewPartitioner(len(side.srcs), len(targets), shuffleBatchRows, shuffleQueueCap,
					func(src, part int, rows []types.Row) error {
						from, to := side.srcs[src].node, targets[part]
						if from == to {
							return nil // local partition: no wire
						}
						return streams[src].Post(transport.DN(from), transport.DN(to), kind, len(rows)*side.prog.shipWidth()*8)
					})
				parts = append(parts, p)
				return p, streams
			}
			buildKind := transport.ShufflePart
			if bcast {
				buildKind = transport.BcastBuild
			}
			bp, buildStreams := sideParts(&build, buildKind)
			var pp *exec.Partitioner // nil: the probe side is not exchanged
			var probeStreams []transport.Stream
			if !bcast {
				pp, probeStreams = sideParts(&probe, transport.ShufflePart)
			}
			cancelAll := func() {
				for _, p := range parts {
					p.Cancel()
				}
			}

			var (
				startOnce  sync.Once
				producerWG sync.WaitGroup
				errOnce    sync.Once
				prodErr    error
			)
			fail := func(err error) {
				errOnce.Do(func() { prodErr = err })
				cancelAll()
			}
			// produce scans one source fragment and routes its rows: to every
			// target when all is set, else to the one its key hashes to. NULL
			// keys are dropped at the producer: they can never match an inner
			// join, so they need not cross the fabric at all.
			produce := func(ctx *exec.Ctx, side *joinSide, part *exec.Partitioner, stream *transport.Stream, src int, all bool) error {
				w := part.Writer(src)
				var key []byte
				var keyErr error
				err := side.scan(ctx, side.srcs[src], nil, func(r types.Row) bool {
					var null bool
					if key, null, keyErr = exec.AppendKeys(key[:0], ctx, side.keys, r); keyErr != nil || null {
						return keyErr == nil
					}
					if !all {
						keyErr = w.Write(shufflePart(key, len(targets)), r)
						return keyErr == nil
					}
					for t := range targets {
						if keyErr = w.Write(t, r); keyErr != nil {
							return false
						}
					}
					return true
				})
				if err == nil {
					err = keyErr
				}
				if err == nil {
					err = w.Flush()
				}
				if err == nil {
					// The stream's one wait, before Close marks the queues
					// complete: no consumer can finish ahead of the last
					// batch's arrival.
					stream.Wait()
				}
				if cerr := w.Close(); err == nil {
					err = cerr
				}
				return err
			}
			start := func(ctx *exec.Ctx) {
				startOnce.Do(func() {
					now := ctx.Now
					spawn := func(side *joinSide, part *exec.Partitioner, streams []transport.Stream, all bool) {
						for i := range side.srcs {
							producerWG.Add(1)
							go func(src int) {
								defer producerWG.Done()
								if err := produce(exec.NewCtx(now), side, part, &streams[src], src, all); err != nil && !errors.Is(err, exec.ErrPartitionerCanceled) {
									fail(err)
								}
							}(i)
						}
					}
					spawn(&build, bp, buildStreams, bcast)
					if pp != nil {
						spawn(&probe, pp, probeStreams, false)
					}
				})
			}

			frags := make([]exec.Fragment, len(targets))
			for t := range targets {
				t := t
				frags[t] = func(ctx *exec.Ctx, emit func(types.Row) bool) error {
					start(ctx)
					// Never leave producers running past the statement:
					// every exit path cancels (if needed) and joins them.
					defer producerWG.Wait()
					err := a.fragment(targets[t], 0, width, emit, func(out *shipment) error {
						table := exec.NewJoinTable(spec.Build.Keys)
						err := bp.Drain(t, func(rows []types.Row) error {
							for _, r := range rows {
								if err := table.Add(ctx, r); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							return err
						}
						if pp == nil {
							return a.probeLocal(ctx, spec, probe, t, targets[t], table, out.ship)
						}
						pe, probeErr := probeEmit(ctx, spec, table, out.ship)
						return pp.Drain(t, func(rows []types.Row) error {
							for _, r := range rows {
								if !pe(r) {
									return *probeErr
								}
							}
							return nil
						})
					})
					switch {
					case err == nil:
						return nil
					case errors.Is(err, exec.ErrPartitionerCanceled):
						// A producer failed (or a sibling canceled): surface
						// the root cause if there is one.
						if prodErr != nil {
							return prodErr
						}
						return nil
					default:
						// This target failed, or its consumer stopped it
						// (errStopped): stop the producers.
						cancelAll()
						return err
					}
				}
			}
			return frags, nil
		},
	}
}
