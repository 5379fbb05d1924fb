// Package transport is the cluster's network fabric: every cross-node
// interaction — snapshot acquisition, scan-fragment dispatch, 2PC legs,
// GTM round trips, commit-log shipping, bucket-migration streams — is a
// typed message sent over it. The fabric does three jobs the old global
// hop() counter could not:
//
//   - Attribution. Messages carry a MsgType and endpoints, so experiments
//     can report messages-per-transaction *by type* (E15) instead of an
//     undifferentiated hop count, and per-link traffic is observable.
//   - Cost model. A base one-way latency (settable atomically at runtime),
//     optional per-link overrides with jitter, and a bandwidth term for
//     bulk payloads turn the single sleep into a per-link model.
//   - Fault injection. Links can delay, drop (once, N times, or forever)
//     or be cut by a full network partition; partitioned endpoints are
//     reported through Unreachable so the cluster's liveness checks and
//     the replication failure detector compose with injected partitions.
//
// The fabric is in-process. Post accounts one message, applies faults and
// partitions — an error is a failed RPC to the caller — and returns the
// message's modeled delay; waiting is separate, because what a protocol
// waits for is not what it sends: Send waits for its one message, Wave once
// for the slowest of a phase's parallel messages, a Stream once for a
// pipelined sequence, and a message nobody needs an answer to is posted and
// not waited for. Record lists those waits in order, with the messages
// each one waited for. The zero-configuration fabric (New(Config{})) costs
// one atomic add per message on the hot path.
package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// MsgType classifies one cross-node message (the taxonomy of E15).
type MsgType uint8

// Message types.
const (
	// SnapshotReq is a CN->GTM statement-snapshot refresh (baseline mode's
	// per-statement round trip).
	SnapshotReq MsgType = iota
	// GTMRound is any other CN->GTM round trip: BeginGlobal, EndGlobal.
	GTMRound
	// ScanFrag is a scan-fragment dispatch (CN->DN) or its row stream
	// coming back (DN->CN, payload = shipped row bytes).
	ScanFrag
	// Write is one DML leg landing rows on a data node.
	Write
	// Prepare is a 2PC phase-1 prepare leg.
	Prepare
	// Commit is a commit confirmation (single-shard fast path or 2PC
	// phase 2).
	Commit
	// Abort is an abort leg.
	Abort
	// ReplShip is one commit-log entry shipped primary->standby.
	ReplShip
	// RebalCopy is a bucket-migration phase-1 bulk copy stream, and also
	// the replica/standby seeding stream.
	RebalCopy
	// RebalDelta is a bucket-migration phase-4 (post-freeze) delta stream.
	RebalDelta
	// ClientReq is one client -> CN request frame of the front-door wire
	// protocol (payload = encoded frame bytes), so per-session traffic is
	// accounted and fault-injectable like any other fabric message.
	ClientReq
	// ClientResp is the CN -> client response frame.
	ClientResp
	// ShufflePart is one hash-partitioned batch of join input crossing
	// DN->DN during a shuffle join (payload = batch row bytes). Rows that
	// stay on their source node are never sent, so this type's byte count
	// is exactly the shuffle's fabric cost.
	ShufflePart
	// BcastBuild is the CN->DN shipment of a broadcast join's build side
	// (payload = build row bytes; one message per receiving data node).
	BcastBuild
	// DSyncDigest is a sync node's version digest, or a peer fetch
	// request (0 bytes).
	DSyncDigest
	// DSyncDelta is the entries one sync node ships to another.
	DSyncDelta
	// GMDBPub is a GMDB notification carrying a whole object (or a
	// delete, 0 bytes), store -> subscriber.
	GMDBPub
	// GMDBDelta is a GMDB notification carrying a converted delta.
	GMDBDelta

	numMsgTypes = int(GMDBDelta) + 1
)

var msgTypeNames = [numMsgTypes]string{
	"snapshot_req", "gtm_round", "scan_frag", "write", "prepare",
	"commit", "abort", "repl_ship", "rebal_copy", "rebal_delta",
	"client_req", "client_resp", "shuffle_part", "bcast_build",
	"dsync_digest", "dsync_delta", "gmdb_pub", "gmdb_delta",
}

func (t MsgType) String() string {
	if int(t) < numMsgTypes {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// MsgTypes lists every message type in declaration order (stable iteration
// for reports and metrics export).
func MsgTypes() []MsgType {
	out := make([]MsgType, numMsgTypes)
	for i := range out {
		out[i] = MsgType(i)
	}
	return out
}

// EndpointKind is the role of a fabric endpoint.
type EndpointKind uint8

// Endpoint kinds.
const (
	// KindCN is the coordinator.
	KindCN EndpointKind = iota
	// KindDN is a data node (primary or standby), identified by ID.
	KindDN
	// KindGTM is the global transaction manager.
	KindGTM
	// KindClient is one front-door client connection, identified by ID.
	KindClient
	// KindSyncNode is a device, edge or cloud node of device sync.
	KindSyncNode
)

// Endpoint names one party of a link. CN and GTM are singletons (ID 0).
type Endpoint struct {
	Kind EndpointKind
	ID   int
}

func (e Endpoint) String() string {
	switch e.Kind {
	case KindCN:
		return "cn"
	case KindGTM:
		return "gtm"
	case KindClient:
		return fmt.Sprintf("client%d", e.ID)
	case KindSyncNode:
		return fmt.Sprintf("sync%d", e.ID)
	default:
		return fmt.Sprintf("dn%d", e.ID)
	}
}

// CN returns the coordinator endpoint.
func CN() Endpoint { return Endpoint{Kind: KindCN} }

// DN returns the endpoint of data node id.
func DN(id int) Endpoint { return Endpoint{Kind: KindDN, ID: id} }

// GTM returns the global-transaction-manager endpoint.
func GTM() Endpoint { return Endpoint{Kind: KindGTM} }

// Client returns the endpoint of front-door client connection id.
func Client(id int) Endpoint { return Endpoint{Kind: KindClient, ID: id} }

// SyncNode returns the endpoint of device-sync node id.
func SyncNode(id int) Endpoint { return Endpoint{Kind: KindSyncNode, ID: id} }

// Sentinel errors. ErrDropped and ErrPartitioned both wrap ErrUnreachable,
// so callers that only care "the message did not arrive" match once.
var (
	// ErrUnreachable is the base class of every delivery failure.
	ErrUnreachable = errors.New("transport: message not delivered")
	// ErrDropped fires from an injected drop fault.
	ErrDropped = fmt.Errorf("%w: dropped by fault injection", ErrUnreachable)
	// ErrPartitioned fires when the two endpoints are on opposite sides of
	// an injected network partition.
	ErrPartitioned = fmt.Errorf("%w: network partition", ErrUnreachable)
)

// Latency models one link's one-way delay: Base plus a uniform random
// jitter in [0, Jitter).
type Latency struct {
	Base   time.Duration
	Jitter time.Duration
}

// Fault is an injected failure on one link.
type Fault struct {
	// Types restricts the fault to these message types (nil = all).
	Types []MsgType
	// Delay is added to the link latency of matching messages.
	Delay time.Duration
	// Drop makes matching messages fail with ErrDropped.
	Drop bool
	// Count limits how many messages the fault fires on (0 = unlimited).
	Count int64
}

func (f *Fault) matches(t MsgType) bool {
	if len(f.Types) == 0 {
		return true
	}
	for _, ft := range f.Types {
		if ft == t {
			return true
		}
	}
	return false
}

// fault is the armed form of a Fault.
type fault struct {
	Fault
	remaining atomic.Int64 // Count countdown; negative disables the limit
}

func (f *fault) fire() bool {
	if f.Count == 0 {
		return true
	}
	return f.remaining.Add(-1) >= 0
}

// Config configures a fabric.
type Config struct {
	// BaseLatency is the default one-way latency of every link
	// (0 disables the sleep; counters still run).
	BaseLatency time.Duration
	// Bandwidth, in bytes/second, charges payload/Bandwidth extra delay on
	// messages with a payload — the bulk-stream cost (0 = infinite).
	Bandwidth float64
	// Sleep overrides how delay is realized (tests inject a recorder;
	// default time.Sleep).
	Sleep func(time.Duration)
	// Seed seeds the jitter source (0 = 1).
	Seed int64
}

type linkKey struct{ from, to Endpoint }

// TypeStat is one message type's delivery counters.
type TypeStat struct {
	Type    MsgType
	Count   int64 // delivered messages
	Bytes   int64 // delivered payload bytes
	Dropped int64 // messages lost to faults or partitions
}

// Stats is a fabric counter snapshot, indexed by MsgType declaration order.
type Stats [numMsgTypes]TypeStat

// Total returns delivered messages across all types.
func (s Stats) Total() int64 {
	var n int64
	for _, st := range s {
		n += st.Count
	}
	return n
}

// TotalBytes returns delivered payload bytes across all types.
func (s Stats) TotalBytes() int64 {
	var n int64
	for _, st := range s {
		n += st.Bytes
	}
	return n
}

// TotalDropped returns messages lost across all types.
func (s Stats) TotalDropped() int64 {
	var n int64
	for _, st := range s {
		n += st.Dropped
	}
	return n
}

// Sub returns s - base per field (counter deltas over a measured window).
func (s Stats) Sub(base Stats) Stats {
	for i := range s {
		s[i].Count -= base[i].Count
		s[i].Bytes -= base[i].Bytes
		s[i].Dropped -= base[i].Dropped
	}
	return s
}

// Get returns one type's counters.
func (s Stats) Get(t MsgType) TypeStat { return s[t] }

// Msg is one delivered message of a recording.
type Msg struct {
	From, To Endpoint
	Type     MsgType
	Bytes    int // payload
}

// Entry is one wait of a recording: the delivered messages of one Send, one
// Wave or one Stream.Wait — Awaited — or the one message of a bare Post,
// which nobody waits for.
type Entry struct {
	Awaited bool
	Msgs    []Msg
}

// Record turns the recorder on or off. On, the fabric lists every wait its
// callers make, in the order they make them, with the messages each one
// waited for, starting from an empty list: the per-link view of its
// traffic, and the transaction paths the Fig 3 simulator replays. Off by
// default — Post then pays one flag load for it and nothing else.
func (f *Fabric) Record(on bool) {
	f.recMu.Lock()
	f.rec = nil
	f.recMu.Unlock()
	f.recording.Store(on)
}

// Recorded returns the entries recorded since Record(true) or the previous
// call, and starts a new list.
func (f *Fabric) Recorded() []Entry {
	f.recMu.Lock()
	defer f.recMu.Unlock()
	out := f.rec
	f.rec = nil
	return out
}

// record appends one entry to the recording.
func (f *Fabric) record(awaited bool, msgs ...Msg) {
	f.recMu.Lock()
	f.rec = append(f.rec, Entry{Awaited: awaited, Msgs: msgs})
	f.recMu.Unlock()
}

// partition is an immutable view of the injected connectivity failures —
// an isolated-endpoint set plus severed links — swapped atomically so the
// hot path checks it with one load.
type partition struct {
	cut   map[Endpoint]bool
	pairs map[linkKey]bool // severed links, both directions present
}

func (p *partition) severs(from, to Endpoint) bool {
	return p.cut[from] != p.cut[to] || p.pairs[linkKey{from, to}]
}

// Fabric carries every cross-node message of one cluster.
type Fabric struct {
	base      atomic.Int64 // base one-way latency, ns
	bandwidth atomic.Int64 // bytes/s, 0 = infinite

	counts  [numMsgTypes]atomic.Int64
	bytes   [numMsgTypes]atomic.Int64
	dropped [numMsgTypes]atomic.Int64

	// shaped flags that per-link latency overrides or faults exist, so the
	// fault-free fast path skips the map lookups entirely.
	shaped atomic.Bool
	mu     sync.Mutex // guards links, faults, rng
	links  map[linkKey]Latency
	faults map[linkKey][]*fault
	rng    *rand.Rand

	// recording turns the recorder on (Record); off, the hot path pays
	// only this flag load. recMu guards rec.
	recording atomic.Bool
	recMu     sync.Mutex
	rec       []Entry

	part atomic.Pointer[partition]

	// waited sums every delay realized by wait (Waited).
	waited atomic.Int64

	// dnStats holds always-on per-data-node delivery counters (messages and
	// bytes addressed to each DN endpoint, all types), read through DNStats:
	// the autopilot's collect step records them into its information store
	// as the transport.dn_msgs / dn_bytes gauges (its hot-bucket spreading
	// reads Cluster.BucketHeat, not these). The slice is grown copy-on-write
	// under mu; the hot path pays one pointer load plus two atomic adds.
	dnStats atomic.Pointer[[]*dnCounter]

	sleep func(time.Duration)
}

type dnCounter struct {
	msgs  atomic.Int64
	bytes atomic.Int64
}

// DNStat is one data node's delivered-traffic counters, indexed by node id.
type DNStat struct {
	ID    int
	Msgs  int64
	Bytes int64
}

// dnCounter returns (growing the set if needed) the counter for DN id.
func (f *Fabric) dnCounter(id int) *dnCounter {
	if id < 0 {
		return nil
	}
	if p := f.dnStats.Load(); p != nil && id < len(*p) {
		return (*p)[id]
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.dnStats.Load()
	n := id + 1
	if p != nil && len(*p) > n {
		n = len(*p)
	}
	next := make([]*dnCounter, n)
	if p != nil {
		copy(next, *p)
	}
	for i := range next {
		if next[i] == nil {
			next[i] = &dnCounter{}
		}
	}
	f.dnStats.Store(&next)
	return next[id]
}

// DNStats snapshots per-data-node delivered traffic, sorted by node id.
// Nodes that never received a message are absent.
func (f *Fabric) DNStats() []DNStat {
	p := f.dnStats.Load()
	if p == nil {
		return nil
	}
	out := make([]DNStat, len(*p))
	for i, c := range *p {
		out[i] = DNStat{ID: i, Msgs: c.msgs.Load(), Bytes: c.bytes.Load()}
	}
	return out
}

// New builds a fabric.
func New(cfg Config) *Fabric {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	f := &Fabric{
		links:  map[linkKey]Latency{},
		faults: map[linkKey][]*fault{},
		rng:    rand.New(rand.NewSource(seed)),
		sleep:  cfg.Sleep,
	}
	if f.sleep == nil {
		f.sleep = time.Sleep
	}
	f.base.Store(int64(cfg.BaseLatency))
	f.bandwidth.Store(int64(cfg.Bandwidth))
	return f
}

// BaseLatency returns the default one-way link latency.
func (f *Fabric) BaseLatency() time.Duration { return time.Duration(f.base.Load()) }

// SetBaseLatency changes the default one-way link latency. Safe under
// concurrent Sends (stored atomically).
func (f *Fabric) SetBaseLatency(d time.Duration) { f.base.Store(int64(d)) }

// SetBandwidth changes the payload bandwidth model (bytes/second, 0 =
// infinite).
func (f *Fabric) SetBandwidth(bytesPerSec float64) { f.bandwidth.Store(int64(bytesPerSec)) }

// SetLinkLatency overrides the latency of one directed link (from -> to).
// A zero Latency removes the override.
func (f *Fabric) SetLinkLatency(from, to Endpoint, l Latency) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := linkKey{from, to}
	if l == (Latency{}) {
		delete(f.links, k)
	} else {
		f.links[k] = l
	}
	f.shaped.Store(len(f.links) > 0 || len(f.faults) > 0)
}

// InjectFault arms a fault on one directed link (from -> to). Multiple
// faults on a link all apply; delays accumulate and any drop wins.
func (f *Fabric) InjectFault(from, to Endpoint, flt Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	af := &fault{Fault: flt}
	af.remaining.Store(flt.Count)
	k := linkKey{from, to}
	f.faults[k] = append(f.faults[k], af)
	f.shaped.Store(true)
}

// ClearFaults removes every injected fault (latency overrides stay).
func (f *Fabric) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = map[linkKey][]*fault{}
	f.shaped.Store(len(f.links) > 0)
}

// Partition cuts the given endpoints off from the rest of the fabric:
// messages between an isolated endpoint and a non-isolated one fail with
// ErrPartitioned in both directions; traffic within either side still
// flows. It replaces any previous isolated set (severed links from
// CutLinks stay); Heal() removes everything.
func (f *Fabric) Partition(eps ...Endpoint) {
	cut := make(map[Endpoint]bool, len(eps))
	for _, e := range eps {
		cut[e] = true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	next := &partition{cut: cut}
	if p := f.part.Load(); p != nil {
		next.pairs = p.pairs
	}
	f.part.Store(next)
}

// CutLinks severs the direct link between a and b in both directions
// (ErrPartitioned), leaving all other connectivity intact — the asymmetric
// failure a full Partition cannot express: e.g. a primary that lost its
// coordinator-facing network while its replication link to the standby
// still works. Cuts accumulate; Heal() removes them.
func (f *Fabric) CutLinks(a, b Endpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	old := f.part.Load()
	next := &partition{pairs: map[linkKey]bool{{a, b}: true, {b, a}: true}}
	if old != nil {
		next.cut = old.cut
		for k := range old.pairs {
			next.pairs[k] = true
		}
	}
	f.part.Store(next)
}

// Heal removes every injected connectivity failure (partitions and severed
// links).
func (f *Fabric) Heal() { f.part.Store(nil) }

// Unreachable reports whether the coordinator can currently reach ep: true
// when ep is on the isolated side of a partition or its link to the CN is
// severed. This is the liveness signal the cluster's down-node checks and
// the replication failure detector consume (both are coordinator-side
// views). One atomic load; safe on hot paths.
func (f *Fabric) Unreachable(ep Endpoint) bool {
	p := f.part.Load()
	return p != nil && (p.cut[ep] || p.pairs[linkKey{CN(), ep}])
}

// severed reports whether injected connectivity failures separate from and
// to.
func (f *Fabric) severed(from, to Endpoint) bool {
	p := f.part.Load()
	return p != nil && p.severs(from, to)
}

// Post puts one message of type t with a payload of payloadBytes on the
// link from -> to and returns its modeled one-way delay — link latency plus
// payload over bandwidth — without waiting for it. It is the one place a
// message is accounted, fault-checked and partition-checked; who waits, and
// for how much of the delay, is the caller's protocol: Send waits for its
// one message, Wave once for the slowest of many, a Stream once for a whole
// pipelined sequence, and a caller that needs no reply (a read-only
// transaction releasing its legs, an abort) does not wait at all. Post
// returns ErrPartitioned / ErrDropped (both wrapping ErrUnreachable) when
// the message is lost; the caller treats that as a failed RPC. A recording
// (Record) lists a delivered Post as an entry nobody waits for.
func (f *Fabric) Post(from, to Endpoint, t MsgType, payloadBytes int) (time.Duration, error) {
	delay, recording, err := f.post(from, to, t, payloadBytes)
	if recording {
		f.record(false, Msg{from, to, t, payloadBytes})
	}
	return delay, err
}

// post is Post without the recording; it also reports whether a delivered
// message is to be recorded, so a caller that waits records its own entry.
func (f *Fabric) post(from, to Endpoint, t MsgType, payloadBytes int) (time.Duration, bool, error) {
	if f.severed(from, to) {
		f.dropped[t].Add(1)
		return 0, false, fmt.Errorf("%w (%s -> %s, %s)", ErrPartitioned, from, to, t)
	}

	delay := time.Duration(f.base.Load())
	if f.shaped.Load() {
		extra, drop := f.shape(from, to, t, &delay)
		if drop {
			f.dropped[t].Add(1)
			return 0, false, fmt.Errorf("%w (%s -> %s, %s)", ErrDropped, from, to, t)
		}
		delay += extra
	}
	delay += f.payloadDelay(payloadBytes)

	f.counts[t].Add(1)
	f.bytes[t].Add(int64(payloadBytes))
	if to.Kind == KindDN {
		if dc := f.dnCounter(to.ID); dc != nil {
			dc.msgs.Add(1)
			dc.bytes.Add(int64(payloadBytes))
		}
	}
	return delay, f.recording.Load(), nil
}

// payloadDelay is the bandwidth term of a message's delay.
func (f *Fabric) payloadDelay(payloadBytes int) time.Duration {
	if bw := f.bandwidth.Load(); bw > 0 && payloadBytes > 0 {
		return time.Duration(float64(payloadBytes) / float64(bw) * float64(time.Second))
	}
	return 0
}

// wait realizes a modeled delay (Config.Sleep; nothing at zero).
func (f *Fabric) wait(d time.Duration) {
	if d > 0 {
		f.waited.Add(int64(d))
		f.sleep(d)
	}
}

// Waited sums every delay the fabric's callers have waited for: the
// accounted clock of a fabric whose Sleep does nothing.
func (f *Fabric) Waited() time.Duration { return time.Duration(f.waited.Load()) }

// Send delivers one message and waits for it: Post plus the message's own
// delay.
func (f *Fabric) Send(from, to Endpoint, t MsgType, payloadBytes int) error {
	delay, recording, err := f.post(from, to, t, payloadBytes)
	if err != nil {
		return err
	}
	if recording {
		f.record(true, Msg{from, to, t, payloadBytes})
	}
	f.wait(delay)
	return nil
}

// Wave sends the same message from from to every endpoint of tos at once and
// waits once, for the slowest link that delivered — what a coordinator pays
// for one protocol phase over N participants (N messages side by side, not
// N round trips one after the other). It returns nil when every message
// arrived; otherwise a slice parallel to tos holding each lost message's
// error, nil where the message was delivered.
func (f *Fabric) Wave(from Endpoint, tos []Endpoint, t MsgType, payloadBytes int) []error {
	var (
		slowest time.Duration
		lost    []error
		waited  []Msg // recorded only
	)
	for i, to := range tos {
		delay, recording, err := f.post(from, to, t, payloadBytes)
		if err != nil {
			if lost == nil {
				lost = make([]error, len(tos))
			}
			lost[i] = err
			continue
		}
		slowest = max(slowest, delay)
		if recording {
			waited = append(waited, Msg{from, to, t, payloadBytes})
		}
	}
	if waited != nil {
		f.record(true, waited...)
	}
	f.wait(slowest)
	return lost
}

// Stream prices messages that follow each other without waiting for
// replies — one sender's batches, or many senders' results converging on
// one receiver: the link latencies overlap and the payloads serialize on
// the shared end, so the whole sequence costs the slowest latency posted
// plus the summed payload time, waited once by Wait. Not safe for
// concurrent use.
type Stream struct {
	f       *Fabric
	latency time.Duration
	payload time.Duration
	waited  []Msg // recorded only
}

// Stream starts an empty stream on the fabric.
func (f *Fabric) Stream() Stream { return Stream{f: f} }

// Post is Fabric.Post with the delay added to the stream's bill.
func (s *Stream) Post(from, to Endpoint, t MsgType, payloadBytes int) error {
	delay, recording, err := s.f.post(from, to, t, payloadBytes)
	if err != nil {
		return err
	}
	payload := s.f.payloadDelay(payloadBytes)
	s.latency = max(s.latency, delay-payload)
	s.payload += payload
	if recording {
		s.waited = append(s.waited, Msg{from, to, t, payloadBytes})
	}
	return nil
}

// Wait waits until the last posted message has arrived; call it once, when
// the stream is complete. A stream nothing was delivered on waits for
// nothing.
func (s *Stream) Wait() {
	if s.waited != nil {
		s.f.record(true, s.waited...)
	}
	s.f.wait(s.latency + s.payload)
}

// shape resolves per-link latency overrides and faults for one message.
// It returns any extra delay and whether the message is dropped; when an
// override exists, *delay is replaced by the override's sample.
func (f *Fabric) shape(from, to Endpoint, t MsgType, delay *time.Duration) (extra time.Duration, drop bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	k := linkKey{from, to}
	if l, ok := f.links[k]; ok {
		d := l.Base
		if l.Jitter > 0 {
			d += time.Duration(f.rng.Int63n(int64(l.Jitter)))
		}
		*delay = d
	}
	for _, flt := range f.faults[k] {
		if !flt.matches(t) {
			continue
		}
		if !flt.fire() {
			continue
		}
		if flt.Drop {
			return 0, true
		}
		extra += flt.Delay
	}
	return extra, false
}

// Stats snapshots the per-type counters.
func (f *Fabric) Stats() Stats {
	var s Stats
	for i := 0; i < numMsgTypes; i++ {
		s[i] = TypeStat{
			Type:    MsgType(i),
			Count:   f.counts[i].Load(),
			Bytes:   f.bytes[i].Load(),
			Dropped: f.dropped[i].Load(),
		}
	}
	return s
}

// ResetCounters zeroes the per-type counters (measured-window bookkeeping
// in experiments; prefer Stats().Sub(base) when traffic is concurrent).
func (f *Fabric) ResetCounters() {
	for i := 0; i < numMsgTypes; i++ {
		f.counts[i].Store(0)
		f.bytes[i].Store(0)
		f.dropped[i].Store(0)
	}
	if p := f.dnStats.Load(); p != nil {
		for _, dc := range *p {
			dc.msgs.Store(0)
			dc.bytes.Store(0)
		}
	}
}
