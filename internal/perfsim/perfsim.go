// Package perfsim is a discrete-event simulator that replays transaction
// paths recorded on the live cluster's fabric, used to regenerate the
// paper's Fig 3 (GTM-Lite scalability) and its ablations.
//
// Why a simulator: the paper measured wall-clock throughput on clusters of
// 1–8 physical machines. This reproduction runs on a single host, where
// wall-clock concurrency cannot express "8 machines worth" of parallel CPU.
// The simulator keeps the queueing — FCFS service demands at data nodes and
// at the serialized GTM, measured in virtual time — and nothing else: which
// messages a transaction sends is decided by the engine alone. A path is
// what transport.Fabric.Record listed for one committed transaction of the
// live cluster, so GTM-lite and the baseline differ here only in the paths
// their protocols recorded. The GTM bottleneck, and GTM-lite's removal of
// it for single-shard transactions, arise from queueing at the single GTM
// server exactly as in the real system; only absolute numbers differ.
//
// The simulation is a closed-loop queueing network: a fixed client
// population issues transactions back-to-back, each a path drawn from the
// single- or multi-shard pool, its data nodes mapped onto distinct
// simulated ones. A path replays its entries in order:
//
//   - an awaited entry costs one network hop plus FCFS service at every
//     receiving GTM or data node, and the client goes on when the slowest
//     of its messages has been served;
//   - an entry nobody waits for (a read-only release, the GTM told an
//     outcome) occupies its servers but does not hold the client.
package perfsim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/transport"
)

// Params configures one simulation run. All times are in seconds.
type Params struct {
	DataNodes int
	// SingleShardFraction is the probability a transaction is drawn from
	// the single-shard paths (1.0 for the paper's SS workload, 0.9 for MS).
	SingleShardFraction float64
	// ClientsPerDN is the closed-loop population per data node.
	ClientsPerDN int
	// Duration is the virtual time horizon.
	Duration float64

	// GTMService is the serialized service time per GTM message.
	GTMService float64
	// DNWork is the data-node execution time of one transaction leg,
	// spread over the data messages (write, scan_frag) the leg received.
	DNWork float64
	// PrepareCost and CommitCost are per prepare / commit (or abort)
	// message.
	PrepareCost float64
	CommitCost  float64
	// NetHop is the one-way network latency per awaited entry.
	NetHop float64
	// CNService is the coordinator's per-transaction parse/route cost
	// (CNs scale out with the cluster, so this is pure latency, not a
	// shared server).
	CNService float64

	Seed int64
}

// DefaultParams returns the parameter set used for the Fig 3 reproduction:
// service demands chosen so a data node saturates near 4 k recorded TPC-C
// transactions/s and the GTM, at the baseline's ~2.5 GTM messages per
// transaction, near 16 k/s — the paper's shape (baseline flattens as shards
// are added; GTM-lite scales linearly on single-shard work).
func DefaultParams(dataNodes int, ssFraction float64) Params {
	return Params{
		DataNodes:           dataNodes,
		SingleShardFraction: ssFraction,
		ClientsPerDN:        16,
		Duration:            5.0,
		GTMService:          25e-6,
		DNWork:              200e-6,
		PrepareCost:         40e-6,
		CommitCost:          40e-6,
		NetHop:              50e-6,
		CNService:           20e-6,
		Seed:                1,
	}
}

// Path is one committed transaction as the fabric recorded it: its waits,
// in order.
type Path []transport.Entry

// Paths are the recorded transactions Run draws from, filed by how many
// data nodes each one touched.
type Paths struct {
	Single, Multi []Path
}

// Add files p as single- or multi-shard by the distinct data nodes its
// messages touched.
func (ps *Paths) Add(p Path) {
	if len(dataNodes(p)) > 1 {
		ps.Multi = append(ps.Multi, p)
	} else {
		ps.Single = append(ps.Single, p)
	}
}

// dataNodes lists the data nodes p's messages touch, in order of first
// appearance.
func dataNodes(p Path) []int {
	var ids []int
	for _, e := range p {
		for _, m := range e.Msgs {
			for _, ep := range [2]transport.Endpoint{m.From, m.To} {
				if ep.Kind == transport.KindDN && !slices.Contains(ids, ep.ID) {
					ids = append(ids, ep.ID)
				}
			}
		}
	}
	return ids
}

// isData reports whether m does a leg's work: a write or a fragment
// arriving at a data node.
func isData(m transport.Msg) bool {
	return m.To.Kind == transport.KindDN && (m.Type == transport.Write || m.Type == transport.ScanFrag)
}

// Result summarizes one run.
type Result struct {
	Params         Params
	Completed      int64
	Throughput     float64 // transactions per virtual second
	AvgLatency     float64
	P95Latency     float64
	GTMUtilization float64
	DNUtilization  float64 // mean across data nodes
	GTMRequests    int64
}

func (r Result) String() string {
	return fmt.Sprintf("dn=%d ss=%.0f%%: %.0f txn/s (gtm util %.0f%%, dn util %.0f%%)",
		r.Params.DataNodes, r.Params.SingleShardFraction*100,
		r.Throughput, r.GTMUtilization*100, r.DNUtilization*100)
}

// server is an FCFS single server in virtual time.
type server struct {
	free  float64
	busy  float64
	count int64
}

// serve returns the completion time of a request arriving at t.
func (s *server) serve(t, svc float64) float64 {
	start := t
	if s.free > start {
		start = s.free
	}
	s.free = start + svc
	s.busy += svc
	s.count++
	return s.free
}

// event is one scheduled continuation.
type event struct {
	t   float64
	seq uint64
	fn  func(now float64)
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// sim is the event kernel. Requests to a server are scheduled as events at
// their arrival time, so FCFS order is exact even when a transaction visits
// the same server several times with other work in between (the GTM begin /
// end pattern).
type sim struct {
	h   eventHeap
	seq uint64
}

func (s *sim) at(t float64, fn func(now float64)) {
	s.seq++
	heap.Push(&s.h, event{t: t, seq: s.seq, fn: fn})
}

// Run replays paths for p.Duration of virtual time.
func Run(p Params, paths Paths) Result {
	if p.DataNodes < 1 {
		panic("perfsim: DataNodes must be >= 1")
	}
	if len(paths.Single)+len(paths.Multi) == 0 {
		panic("perfsim: no recorded paths")
	}
	rng := rand.New(rand.NewSource(p.Seed))

	gtm := &server{}
	dns := make([]*server, p.DataNodes)
	for i := range dns {
		dns[i] = &server{}
	}

	var completed int64
	var latencySum float64
	latencies := make([]float64, 0, 1<<16)

	s := &sim{}
	var startTxn func(t float64)
	startTxn = func(start float64) {
		if start >= p.Duration {
			return
		}
		pool := paths.Single
		if len(pool) == 0 || (len(paths.Multi) > 0 && rng.Float64() >= p.SingleShardFraction) {
			pool = paths.Multi
		}
		path := pool[rng.Intn(len(pool))]
		first := rng.Intn(len(dns))
		// The path's k-th data node is simulated node first+k; its leg's
		// work is spread over the data messages it received.
		ids := dataNodes(path)
		legMsgs := make([]int, len(ids))
		for _, e := range path {
			for _, m := range e.Msgs {
				if isData(m) {
					legMsgs[slices.Index(ids, m.To.ID)]++
				}
			}
		}
		// cost names the server m asks and for how long; nil for the
		// coordinator or a client (a hop, no queue).
		cost := func(m transport.Msg) (*server, float64) {
			switch m.To.Kind {
			case transport.KindGTM:
				return gtm, p.GTMService
			case transport.KindDN:
				k := slices.Index(ids, m.To.ID)
				srv := dns[(first+k)%len(dns)]
				switch {
				case isData(m):
					return srv, p.DNWork / float64(legMsgs[k])
				case m.Type == transport.Prepare:
					return srv, p.PrepareCost
				case m.Type == transport.Commit || m.Type == transport.Abort:
					return srv, p.CommitCost
				}
				return srv, 0
			}
			return nil, 0
		}
		// replay runs the path's entries from i on, starting at time t.
		var replay func(i int, t float64)
		replay = func(i int, t float64) {
			for ; i < len(path); i++ {
				e, next, arrive := path[i], i+1, t+p.NetHop
				join, pending := arrive, 0
				for _, m := range e.Msgs {
					srv, svc := cost(m)
					if srv == nil {
						continue
					}
					pending++
					s.at(arrive, func(now float64) {
						served := srv.serve(now, svc)
						if e.Awaited {
							s.at(served, func(now float64) {
								join = max(join, now)
								if pending--; pending == 0 {
									replay(next, join)
								}
							})
						}
					})
				}
				if e.Awaited {
					if pending > 0 {
						return
					}
					t = arrive // it went to no server
				}
			}
			// The reply to the client.
			if done := t + p.NetHop; done < p.Duration {
				completed++
				lat := done - start
				latencySum += lat
				latencies = append(latencies, lat)
				startTxn(done)
			}
		}
		// Client -> CN and the CN's own work, then the path.
		replay(0, start+p.NetHop+p.CNService)
	}

	nClients := p.ClientsPerDN * p.DataNodes
	for c := 0; c < nClients; c++ {
		// Stagger starts a little to avoid a thundering herd at t=0.
		startTxn(float64(c) * p.NetHop / float64(nClients+1))
	}

	for s.h.Len() > 0 {
		ev := heap.Pop(&s.h).(event)
		ev.fn(ev.t)
	}

	res := Result{
		Params:      p,
		Completed:   completed,
		Throughput:  float64(completed) / p.Duration,
		GTMRequests: gtm.count,
	}
	if completed > 0 {
		res.AvgLatency = latencySum / float64(completed)
		sort.Float64s(latencies)
		res.P95Latency = latencies[int(float64(len(latencies))*0.95)]
	}
	// Requests admitted just before the horizon may finish past it; clamp
	// so utilization stays a fraction of the measured window.
	res.GTMUtilization = clamp01(gtm.busy / p.Duration)
	var dnBusy float64
	for _, dn := range dns {
		dnBusy += dn.busy
	}
	res.DNUtilization = clamp01(dnBusy / (p.Duration * float64(p.DataNodes)))
	return res
}

func clamp01(x float64) float64 {
	if x > 1 {
		return 1
	}
	return x
}
