package plan

// Distributed join planning (paper §II-A: FI-MPPDB's "query planning and
// execution are optimized for large scale parallel processing"). When both
// sides of an inner equi-join are bare NDP base-table scans, the planner
// picks a distribution strategy from key-vs-bucket-map alignment and
// relative size estimates, and asks the engine — through the optional
// DistJoinAccess extension — for an operator that executes the join where
// the data lives:
//
//   - co-located: both sides hash-distributed on their join key (or one
//     side replicated), so every DN joins its own partitions; nothing but
//     results crosses the fabric.
//   - broadcast: the small build side streams from each DN to every DN
//     (bcast_build); each DN probes with its local partition.
//   - shuffle: both inputs hash-partition by join key across the DNs
//     (shuffle_part); each DN joins one key range.
//
// Anything the engine declines falls back to the CN join over exchanged
// scans, so conservatism is always safe.

import (
	"repro/internal/exec"
	"repro/internal/types"
)

// DistStrategy names a distributed join execution strategy.
type DistStrategy uint8

const (
	// DistNone is the CN fallback (or, in DistJoinPolicy.Force, "choose
	// automatically").
	DistNone DistStrategy = iota
	DistColocated
	DistBroadcast
	DistShuffle
)

func (s DistStrategy) String() string {
	switch s {
	case DistColocated:
		return "colocated"
	case DistBroadcast:
		return "broadcast"
	case DistShuffle:
		return "shuffle"
	default:
		return "cn"
	}
}

// DistJoinSide describes one input of a distributed join: the base table,
// its NDP pushdown spec (filled by later planning passes — the engine must
// read it at open, like ScanPushdown), and the join keys compiled against
// the table schema.
type DistJoinSide struct {
	Meta *TableMeta
	Spec *ScanPushdown
	Keys []exec.Expr
}

// DistJoinSpec is everything the engine needs to run one join DN-side.
// Probe is the left (streamed) input, Build the right (hashed) input. Out
// is the join's output schema (probe columns then build columns).
type DistJoinSpec struct {
	Strategy DistStrategy
	Probe    DistJoinSide
	Build    DistJoinSide
	Out      *types.Schema
}

// DistJoinAccess is the optional Access extension for DN-side joins. The
// returned operator must stream exactly the rows the CN HashJoin would
// produce (in any order); ok=false falls back to the CN path.
type DistJoinAccess interface {
	Access
	JoinScan(spec *DistJoinSpec) (exec.Operator, bool)
}

// DistJoinPolicy steers strategy selection, mainly for tests and
// experiments.
type DistJoinPolicy struct {
	// Disable turns distributed joins off entirely (CN fallback).
	Disable bool
	// Force pins the strategy: DistNone means choose automatically;
	// DistColocated applies only when the keys actually align (otherwise
	// CN fallback — forcing co-location on misaligned keys would be
	// wrong); DistBroadcast / DistShuffle override the size heuristics.
	Force DistStrategy
}

// dnCounter is implemented by catalogs that know the cluster width (the
// engine's Cluster does); it sizes the broadcast-vs-shuffle tradeoff.
type dnCounter interface{ DataNodeCount() int }

// defaultDNCount is assumed when the catalog cannot report a node count.
const defaultDNCount = 4

// tryDistJoin inspects an inner hash join whose planning just finished (it
// has no residual: its ON conjuncts are WHERE conjuncts) and, when both
// sides are bare NDP base-table scans with partition-pure keys, asks the
// engine for a distributed execution. On success the engine operator is
// attached as hj.Dist (the HashJoin delegates to it and never opens its
// children); the side programs count the side steps through their specs.
// Returns whether a distributed strategy was installed.
func (pc *pctx) tryDistJoin(hj *exec.HashJoin, lop, rop exec.Operator, lEst, rEst float64) bool {
	dj, ok := pc.p.Access.(DistJoinAccess)
	if !ok || pc.p.DistJoin.Disable || pc.scans == nil {
		return false
	}
	lc, lok := lop.(*exec.Counted)
	rc, rok := rop.(*exec.Counted)
	if !lok || !rok {
		return false
	}
	linfo, rinfo := (*pc.scans)[lc], (*pc.scans)[rc]
	if linfo == nil || rinfo == nil {
		return false
	}
	// A folded scan (a derived table's block) emits output rows, and a DN
	// join reads table rows: it stays a CN join input, as under its Project.
	if linfo.spec.Bloom != nil || rinfo.spec.Bloom != nil || linfo.spec.Out != nil || rinfo.spec.Out != nil {
		return false
	}
	for i := range hj.LeftKeys {
		if !exec.IsPartitionPure(hj.LeftKeys[i]) || !exec.IsPartitionPure(hj.RightKeys[i]) {
			return false
		}
	}

	lMeta, rMeta := linfo.meta, rinfo.meta
	if lMeta.DistKey < 0 && rMeta.DistKey < 0 {
		// Both replicated: every DN already holds both tables in full, but
		// running the join N times would duplicate output. Stay on the CN.
		return false
	}
	aligned := lMeta.DistKey < 0 || rMeta.DistKey < 0
	if !aligned {
		for i := range hj.LeftKeys {
			lk, lok := hj.LeftKeys[i].(*exec.ColRef)
			rk, rok := hj.RightKeys[i].(*exec.ColRef)
			if lok && rok && lk.Index == lMeta.DistKey && rk.Index == rMeta.DistKey {
				aligned = true
				break
			}
		}
	}

	strategy := DistShuffle
	if aligned {
		strategy = DistColocated
	} else {
		n := defaultDNCount
		if dc, ok := pc.p.Catalog.(dnCounter); ok && dc.DataNodeCount() > 0 {
			n = dc.DataNodeCount()
		}
		le, re := lEst, rEst
		if le <= 0 {
			le = 1000
		}
		if re <= 0 {
			re = 1000
		}
		// Broadcast ships the build side n-1 extra times; shuffle ships
		// roughly both sides once. Prefer broadcast only when it moves
		// fewer bytes.
		if re*float64(n-1) < le {
			strategy = DistBroadcast
		}
	}
	switch pc.p.DistJoin.Force {
	case DistNone:
	case DistColocated:
		if !aligned {
			return false
		}
		strategy = DistColocated
	default:
		strategy = pc.p.DistJoin.Force
	}

	spec := &DistJoinSpec{
		Strategy: strategy,
		Probe:    DistJoinSide{Meta: lMeta, Spec: linfo.spec, Keys: hj.LeftKeys},
		Build:    DistJoinSide{Meta: rMeta, Spec: rinfo.spec, Keys: hj.RightKeys},
		Out:      hj.Schema(),
	}
	op, ok := dj.JoinScan(spec)
	if !ok {
		return false
	}
	hj.Dist = op
	return true
}
