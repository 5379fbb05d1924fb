// Package dsync implements the paper's distributed data-collaboration
// platform across devices, edge and cloud (§IV-B): a peer-to-peer data
// sync layer with hybrid logical clocks (tolerating the time-drift problem
// the paper calls out), last-writer-wins convergence, digest-based
// anti-entropy that guarantees no data loss and no redundant data,
// query-based event subscriptions, and both P2P-mesh and leader-based
// topologies, every exchange a message on a transport fabric.
package dsync

import (
	"cmp"
	"fmt"
	"sync"
	"time"
)

// Timestamp is a hybrid logical clock reading. Ordering is total:
// (Physical, Logical, Node).
type Timestamp struct {
	Physical int64  // wall nanoseconds as observed by the issuing node
	Logical  int32  // HLC logical component
	Node     string // tie breaker; also identifies the writer
}

// Compare orders two timestamps (-1, 0, 1).
func (t Timestamp) Compare(o Timestamp) int {
	if c := cmp.Compare(t.Physical, o.Physical); c != 0 {
		return c
	}
	if c := cmp.Compare(t.Logical, o.Logical); c != 0 {
		return c
	}
	return cmp.Compare(t.Node, o.Node)
}

func (t Timestamp) String() string {
	return fmt.Sprintf("%d.%d@%s", t.Physical, t.Logical, t.Node)
}

// HLC is a hybrid logical clock. Even when a node's wall clock drifts
// behind its peers', timestamps issued after observing a peer's timestamp
// sort after it — this is how the platform "solves the time drift problem
// across devices" (§IV-B2).
type HLC struct {
	node string
	wall func() time.Time

	mu       sync.Mutex
	physical int64
	logical  int32
}

// NewHLC creates a clock for a node; wall may be nil (system clock).
func NewHLC(node string, wall func() time.Time) *HLC {
	if wall == nil {
		wall = time.Now
	}
	return &HLC{node: node, wall: wall}
}

// Now issues a new timestamp.
func (h *HLC) Now() Timestamp {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.wall().UnixNano()
	if now > h.physical {
		h.physical = now
		h.logical = 0
	} else {
		h.logical++
	}
	return Timestamp{Physical: h.physical, Logical: h.logical, Node: h.node}
}

// Observe advances the clock past a received timestamp, preserving
// causality across drifting wall clocks.
func (h *HLC) Observe(ts Timestamp) {
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.wall().UnixNano()
	maxPhys := max(h.physical, ts.Physical)
	if now > maxPhys {
		h.physical = now
		h.logical = 0
		return
	}
	if maxPhys == h.physical && maxPhys == ts.Physical {
		h.logical = max(h.logical, ts.Logical) + 1
	} else if maxPhys == ts.Physical {
		h.physical = maxPhys
		h.logical = ts.Logical + 1
	} else {
		h.logical++
	}
}
