package cluster

import (
	"fmt"

	"repro/internal/types"
)

// NumBuckets is the fixed size of the hash-bucket routing map. Keys hash
// into one of NumBuckets buckets and the bucket map assigns each bucket to
// a data node, so cluster membership can change without rehashing data:
// expansion moves whole buckets, never individual keys.
const NumBuckets = 256

// BucketOf returns the bucket a distribution-key datum hashes into.
func BucketOf(key types.Datum) int {
	return int(types.Hash(key) % NumBuckets)
}

// BucketMap is the routing indirection between key buckets and data nodes.
// The zero value is not useful; build one with NewBucketMap. It is a plain
// value with no internal locking — the cluster guards its map with routeMu.
type BucketMap struct {
	dn [NumBuckets]int
}

// NewBucketMap builds the initial assignment for a cluster of dataNodes
// shards: bucket b lives on node b % dataNodes. Whenever dataNodes divides
// NumBuckets (all power-of-two sizes up to 256) this places every key on
// exactly the same node as the historical `hash % N` formula, so seed data
// layouts are unchanged.
func NewBucketMap(dataNodes int) (*BucketMap, error) {
	if dataNodes < 1 {
		return nil, fmt.Errorf("cluster: bucket map needs at least one data node, got %d", dataNodes)
	}
	m := &BucketMap{}
	for b := range m.dn {
		m.dn[b] = b % dataNodes
	}
	return m, nil
}

// DNFor returns the data node a distribution-key datum routes to.
func (m *BucketMap) DNFor(key types.Datum) int { return m.dn[BucketOf(key)] }

// Set reassigns one bucket.
func (m *BucketMap) Set(bucket, dn int) { m.dn[bucket] = dn }

// Owners returns a copy of the full bucket -> data node assignment.
func (m *BucketMap) Owners() []int {
	out := make([]int, NumBuckets)
	copy(out, m.dn[:])
	return out
}

// Counts tallies buckets per data node over dataNodes nodes.
func (m *BucketMap) Counts(dataNodes int) []int {
	out := make([]int, dataNodes)
	for _, d := range m.dn {
		if d < dataNodes {
			out[d]++
		}
	}
	return out
}

// Clone returns an independent copy.
func (m *BucketMap) Clone() *BucketMap {
	c := *m
	return &c
}

// PlanExpansion returns the buckets that should migrate to newDN so that a
// cluster of total nodes is balanced. It moves the minimal number of
// buckets: floor(NumBuckets/total) minus whatever newDN already owns, never
// more than ceil(NumBuckets/total), always stealing from the currently
// most-loaded node. The map itself is not modified — callers apply the plan
// bucket by bucket as each move commits.
func (m *BucketMap) PlanExpansion(newDN, total int) []int {
	counts := make([]int, total)
	for _, d := range m.dn {
		if d < total {
			counts[d]++
		}
	}
	share := NumBuckets / total
	planned := make(map[int]bool)
	var moves []int
	for counts[newDN] < share {
		donor := -1
		for d := 0; d < total; d++ {
			if d == newDN {
				continue
			}
			if donor < 0 || counts[d] > counts[donor] {
				donor = d
			}
		}
		if donor < 0 || counts[donor] <= counts[newDN] {
			break
		}
		// Deterministic choice: the highest-numbered unplanned bucket the
		// donor owns.
		picked := -1
		for b := NumBuckets - 1; b >= 0; b-- {
			if m.dn[b] == donor && !planned[b] {
				picked = b
				break
			}
		}
		if picked < 0 {
			break
		}
		planned[picked] = true
		moves = append(moves, picked)
		counts[donor]--
		counts[newDN]++
	}
	return moves
}
