package dsync

import (
	"time"

	"repro/internal/transport"
)

// DefaultLinks returns the paper's 10x asymmetry ("at least 10X faster
// than communications through the Internet") as two fabrics: direct radio
// between peers at 5 ms one way, the device <-> cloud Internet path at
// 50 ms. Sync time is accounted (Fabric.Waited), never slept.
func DefaultLinks() (direct, internet *transport.Fabric) {
	link := func(oneWay time.Duration) *transport.Fabric {
		return transport.New(transport.Config{BaseLatency: oneWay, Sleep: func(time.Duration) {}})
	}
	return link(5 * time.Millisecond), link(50 * time.Millisecond)
}

// SyncStats summarizes one synchronization exchange.
type SyncStats struct {
	EntriesAtoB int
	EntriesBtoA int
	Bytes       int
	// SimTime is the virtual wall time the exchange waited on the fabric.
	SimTime time.Duration
}

// send puts one message of the exchange on f; once it is delivered, its
// payload counts and the entries it carries apply at the receiver.
func (st *SyncStats) send(f *transport.Fabric, from, to *Node, t transport.MsgType, bytes int, es []Entry) error {
	if err := f.Send(from.ep, to.ep, t, bytes); err != nil {
		return err
	}
	st.Bytes += bytes
	for _, e := range es {
		to.applyEntry(e, true)
	}
	return nil
}

// SyncPair runs one bidirectional anti-entropy exchange between two nodes
// over f: a sends its digest and b replies with its own (one round trip),
// then a ships the entries b lacks and b replies with the entries a lacks.
// The exchange preserves the platform's guarantee of "no data loss and no
// redundant data": every newer version transfers, nothing already known
// does. A lost message ends the exchange with its error; a node applies
// only a batch that reached it, so the next exchange ships what was lost.
func SyncPair(a, b *Node, f *transport.Fabric) (st SyncStats, err error) {
	start := f.Waited()
	defer func() { st.SimTime = f.Waited() - start }()

	da, db := a.Digest(), b.Digest()
	if err := st.send(f, a, b, transport.DSyncDigest, DigestSize(da), nil); err != nil {
		return st, err
	}
	if err := st.send(f, b, a, transport.DSyncDigest, DigestSize(db), nil); err != nil {
		return st, err
	}

	// Each side ships what the other is missing (and accepts, per its
	// SyncFilter).
	fromA := a.MissingFrom(db, b.SyncFilter)
	fromB := b.MissingFrom(da, a.SyncFilter)
	if err := st.send(f, a, b, transport.DSyncDelta, entriesSize(fromA), fromA); err != nil {
		return st, err
	}
	st.EntriesAtoB = len(fromA)
	if err := st.send(f, b, a, transport.DSyncDelta, entriesSize(fromB), fromB); err != nil {
		return st, err
	}
	st.EntriesBtoA = len(fromB)
	return st, nil
}

func entriesSize(es []Entry) int {
	n := 0
	for _, e := range es {
		n += e.size()
	}
	return n
}

// Topology names the sync arrangement.
type Topology uint8

// Topologies (§IV-B2: P2P chosen "to avoid a single point failure", with a
// leader-based arrangement "also useful in a relatively stable network").
const (
	// MeshP2P gossips around a ring of direct-radio links until quiescent.
	MeshP2P Topology = iota
	// ViaCloud syncs every node with a cloud relay over Internet links
	// (the conventional MBaaS arrangement).
	ViaCloud
	// LeaderStar syncs every node with an elected local leader over
	// direct-radio links (e.g. the home Wi-Fi router).
	LeaderStar
)

// ConvergeResult reports a full synchronization run: the traffic and
// accounted time of this run alone on its fabric.
type ConvergeResult struct {
	Rounds   int
	Messages int64
	Bytes    int64
	SimTime  time.Duration
	// Failed counts exchanges a lost message cut short.
	Failed int
	// Converged is false only if MaxRounds was hit first.
	Converged bool
}

// Converge drives sync exchanges over f under the given topology until all
// nodes share identical state (or maxRounds passes elapse). relay is the
// cloud or leader node for the non-mesh topologies (ignored for MeshP2P).
// An exchange a lost message cut short is retried by the next pass
// (anti-entropy); convergence alone decides when the run is done.
func Converge(nodes []*Node, relay *Node, topo Topology, f *transport.Fabric, maxRounds int) ConvergeResult {
	if maxRounds <= 0 {
		maxRounds = 3 * (len(nodes) + 1)
	}
	synced := nodes
	if topo != MeshP2P {
		synced = append(nodes[:len(nodes):len(nodes)], relay)
	}
	var res ConvergeResult
	before, start := f.Stats(), f.Waited()
	for round := 1; round <= maxRounds; round++ {
		res.Rounds = round
		for i, n := range nodes {
			peer := relay
			if topo == MeshP2P {
				peer = nodes[(i+1)%len(nodes)]
			}
			if _, err := SyncPair(n, peer, f); err != nil {
				res.Failed++
			}
		}
		if allSame(synced) {
			res.Converged = true
			break
		}
	}
	st := f.Stats().Sub(before)
	for _, t := range []transport.MsgType{transport.DSyncDigest, transport.DSyncDelta} {
		res.Messages += st.Get(t).Count
		res.Bytes += st.Get(t).Bytes
	}
	res.SimTime = f.Waited() - start
	return res
}

func allSame(nodes []*Node) bool {
	for _, n := range nodes[1:] {
		if !SameState(nodes[0], n) {
			return false
		}
	}
	return true
}
