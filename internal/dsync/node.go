package dsync

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
)

// Tier classifies a node's capability class (§IV-B: devices with "a broad
// spectrum of capabilities").
type Tier uint8

// Tiers.
const (
	Device Tier = iota
	Edge
	Cloud
)

func (t Tier) String() string {
	switch t {
	case Device:
		return "device"
	case Edge:
		return "edge"
	case Cloud:
		return "cloud"
	default:
		return "tier?"
	}
}

// Entry is one replicated key/value version. Deletions are tombstones so
// they propagate like writes.
type Entry struct {
	Key     string
	Value   []byte
	TS      Timestamp
	Deleted bool
}

// size approximates the entry's wire size.
func (e Entry) size() int { return len(e.Key) + len(e.Value) + 24 }

// Event is delivered to subscribers when a newer version of a matching key
// is applied (local write or sync).
type Event struct {
	Entry Entry
	// Remote is true when the change arrived via sync rather than a local
	// write.
	Remote bool
}

type subscription struct {
	pred func(key string) bool
	ch   chan Event
}

// Node is one participant: phone, watch, edge server or cloud.
type Node struct {
	ID   string
	Tier Tier

	clock *HLC
	ep    transport.Endpoint // the node's end of every fabric it syncs over

	// SyncFilter, when set, restricts what this node replicates: sync only
	// pulls keys the filter accepts (§IV-B2 "Resource Sharing" — a smart
	// watch stores its own namespace and fetches the rest through a peer
	// on demand). Local writes always store regardless of the filter.
	SyncFilter func(key string) bool

	mu   sync.Mutex
	data map[string]Entry
	subs []*subscription

	applied   int64 // new versions accepted
	redundant int64 // sync deliveries that were not newer (no-op merges)
}

// nextEndpoint numbers nodes' fabric endpoints process-wide.
var nextEndpoint atomic.Int64

// NewNode creates a node; wall may be nil (used to inject clock drift in
// tests).
func NewNode(id string, tier Tier, wall func() time.Time) *Node {
	return &Node{
		ID:    id,
		Tier:  tier,
		clock: NewHLC(id, wall),
		ep:    transport.SyncNode(int(nextEndpoint.Add(1))),
		data:  make(map[string]Entry),
	}
}

// Endpoint returns the node's fabric endpoint.
func (n *Node) Endpoint() transport.Endpoint { return n.ep }

// Put writes a key locally and returns the version timestamp.
func (n *Node) Put(key string, value []byte) Timestamp {
	ts := n.clock.Now()
	e := Entry{Key: key, Value: append([]byte(nil), value...), TS: ts}
	n.applyEntry(e, false)
	return ts
}

// Delete writes a tombstone.
func (n *Node) Delete(key string) Timestamp {
	ts := n.clock.Now()
	n.applyEntry(Entry{Key: key, TS: ts, Deleted: true}, false)
	return ts
}

// Get reads a key.
func (n *Node) Get(key string) ([]byte, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	e, ok := n.data[key]
	if !ok || e.Deleted {
		return nil, false
	}
	return append([]byte(nil), e.Value...), true
}

// Keys lists live keys in sorted order.
func (n *Node) Keys() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.data))
	for k, e := range n.data {
		if !e.Deleted {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// applyEntry merges an entry under last-writer-wins; it returns true when
// the entry was newer (applied). Idempotent: re-delivering an entry is a
// no-op, which is what makes sync "no redundant data".
func (n *Node) applyEntry(e Entry, remote bool) bool {
	n.mu.Lock()
	cur, ok := n.data[e.Key]
	if ok && cur.TS.Compare(e.TS) >= 0 {
		if remote {
			n.redundant++
		}
		n.mu.Unlock()
		return false
	}
	n.data[e.Key] = e
	n.applied++
	subs := make([]*subscription, len(n.subs))
	copy(subs, n.subs)
	n.mu.Unlock()

	if remote {
		n.clock.Observe(e.TS)
	}
	for _, s := range subs {
		if s.pred(e.Key) {
			select {
			case s.ch <- Event{Entry: e, Remote: remote}:
			default: // slow subscriber: drop rather than stall sync
			}
		}
	}
	return true
}

// Subscribe registers a query-based subscription: events for keys matching
// pred (paper: "query-based event subscriptions").
func (n *Node) Subscribe(pred func(key string) bool, buffer int) <-chan Event {
	if buffer <= 0 {
		buffer = 64
	}
	ch := make(chan Event, buffer)
	n.mu.Lock()
	n.subs = append(n.subs, &subscription{pred: pred, ch: ch})
	n.mu.Unlock()
	return ch
}

// PrefixPred builds a key-prefix predicate (the common subscription form,
// e.g. "object location changes" under location/).
func PrefixPred(prefix string) func(string) bool {
	return func(key string) bool { return strings.HasPrefix(key, prefix) }
}

// Digest summarizes the node's state: latest version per key (tombstones
// included).
func (n *Node) Digest() map[string]Timestamp {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make(map[string]Timestamp, len(n.data))
	for k, e := range n.data {
		out[k] = e.TS
	}
	return out
}

// DigestSize approximates a digest's wire size.
func DigestSize(d map[string]Timestamp) int {
	size := 0
	for k := range d {
		size += len(k) + 20
	}
	return size
}

// MissingFrom returns this node's entries that are absent or older in the
// peer digest — exactly the set the peer needs: nothing is lost (every
// newer version is included) and nothing is redundant (already-known
// versions are excluded). accept, when non-nil, further restricts the set
// to keys the receiving side replicates (its SyncFilter).
func (n *Node) MissingFrom(peer map[string]Timestamp, accept func(string) bool) []Entry {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []Entry
	for k, e := range n.data {
		if accept != nil && !accept(k) {
			continue
		}
		pts, ok := peer[k]
		if !ok || e.TS.Compare(pts) > 0 {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// FetchVia reads a key locally, falling back to the given peers over f
// (transparent data sharing: storage-constrained devices read through more
// capable ones). Each peer asked costs a request (0 bytes) and a reply
// carrying the entry, if the peer has it; a peer whose request or reply is
// lost is skipped. The fetched value is NOT cached when the node's
// SyncFilter excludes the key.
func (n *Node) FetchVia(key string, peers []*Node, f *transport.Fabric) ([]byte, bool) {
	if v, ok := n.Get(key); ok {
		return v, true
	}
	for _, p := range peers {
		if f.Send(n.ep, p.ep, transport.DSyncDigest, 0) != nil {
			continue
		}
		p.mu.Lock()
		e, ok := p.data[key]
		p.mu.Unlock()
		found := ok && !e.Deleted
		reply := 0
		if found {
			reply = e.size()
		}
		if f.Send(p.ep, n.ep, transport.DSyncDelta, reply) != nil || !found {
			continue
		}
		if n.SyncFilter == nil || n.SyncFilter(key) {
			n.applyEntry(e, true)
		}
		return append([]byte(nil), e.Value...), true
	}
	return nil, false
}

// Stats reports merge counters.
func (n *Node) Stats() (applied, redundant int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.applied, n.redundant
}

// SameState reports whether two nodes have identical visible state
// (convergence checks).
func SameState(a, b *Node) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(a.data) != len(b.data) {
		return false
	}
	for k, ea := range a.data {
		eb, ok := b.data[k]
		if !ok || ea.TS != eb.TS || ea.Deleted != eb.Deleted || string(ea.Value) != string(eb.Value) {
			return false
		}
	}
	return true
}
