package dsync

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/transport"
)

// syncMsgs counts the dsync messages f has delivered.
func syncMsgs(f *transport.Fabric) int64 {
	st := f.Stats()
	return st.Get(transport.DSyncDigest).Count + st.Get(transport.DSyncDelta).Count
}

func TestHLCMonotonicAndDriftTolerant(t *testing.T) {
	// Node B's wall clock is an hour behind A's.
	base := time.Unix(1_000_000, 0)
	a := NewHLC("a", func() time.Time { return base })
	b := NewHLC("b", func() time.Time { return base.Add(-time.Hour) })

	t1 := a.Now()
	b.Observe(t1) // B receives A's timestamp
	t2 := b.Now()
	if t2.Compare(t1) <= 0 {
		t.Errorf("causality violated across drift: %v then %v", t1, t2)
	}
	// Monotonic per node even with a frozen wall clock.
	prev := a.Now()
	for i := 0; i < 100; i++ {
		cur := a.Now()
		if cur.Compare(prev) <= 0 {
			t.Fatalf("non-monotonic: %v then %v", prev, cur)
		}
		prev = cur
	}
}

func TestTimestampTotalOrderProperty(t *testing.T) {
	f := func(p1, p2 int64, l1, l2 int32, swap bool) bool {
		a := Timestamp{Physical: p1, Logical: l1, Node: "a"}
		b := Timestamp{Physical: p2, Logical: l2, Node: "b"}
		if swap {
			a, b = b, a
		}
		c := a.Compare(b)
		return c == -b.Compare(a) && (c != 0 || a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPutGetDelete(t *testing.T) {
	n := NewNode("phone", Device, nil)
	n.Put("photo/1", []byte("img"))
	if v, ok := n.Get("photo/1"); !ok || string(v) != "img" {
		t.Fatalf("get = %q, %v", v, ok)
	}
	n.Delete("photo/1")
	if _, ok := n.Get("photo/1"); ok {
		t.Error("deleted key still visible")
	}
	if keys := n.Keys(); len(keys) != 0 {
		t.Errorf("keys = %v", keys)
	}
}

func TestLastWriterWins(t *testing.T) {
	base := time.Unix(1_000_000, 0)
	a := NewNode("a", Device, func() time.Time { return base })
	b := NewNode("b", Device, func() time.Time { return base.Add(time.Second) })
	a.Put("k", []byte("from-a"))
	b.Put("k", []byte("from-b")) // later wall clock -> wins
	direct, _ := DefaultLinks()
	SyncPair(a, b, direct)
	va, _ := a.Get("k")
	vb, _ := b.Get("k")
	if string(va) != "from-b" || string(vb) != "from-b" {
		t.Errorf("LWW broken: a=%q b=%q", va, vb)
	}
}

func TestSyncNoLossNoDup(t *testing.T) {
	// The §IV-B2 guarantee: after sync, every write is present everywhere
	// (no loss) and re-syncing transfers nothing (no redundant data).
	a := NewNode("a", Device, nil)
	b := NewNode("b", Device, nil)
	for i := 0; i < 20; i++ {
		a.Put(fmt.Sprintf("a/%d", i), []byte("x"))
		b.Put(fmt.Sprintf("b/%d", i), []byte("y"))
	}
	direct, _ := DefaultLinks()
	st, err := SyncPair(a, b, direct)
	if err != nil {
		t.Fatal(err)
	}
	if st.EntriesAtoB != 20 || st.EntriesBtoA != 20 {
		t.Fatalf("first sync = %+v", st)
	}
	if !SameState(a, b) {
		t.Fatal("states differ after sync")
	}
	if len(a.Keys()) != 40 {
		t.Fatalf("keys = %d", len(a.Keys()))
	}
	// Second sync: nothing to ship.
	if st, err = SyncPair(a, b, direct); err != nil {
		t.Fatal(err)
	}
	if st.EntriesAtoB != 0 || st.EntriesBtoA != 0 {
		t.Errorf("redundant transfer: %+v", st)
	}
	// Nothing was double-applied on the first sync either.
	_, redundantA := a.Stats()
	_, redundantB := b.Stats()
	if redundantA != 0 || redundantB != 0 {
		t.Errorf("redundant applies: a=%d b=%d", redundantA, redundantB)
	}
}

func TestTombstonesPropagate(t *testing.T) {
	a := NewNode("a", Device, nil)
	b := NewNode("b", Device, nil)
	a.Put("k", []byte("v"))
	direct, _ := DefaultLinks()
	SyncPair(a, b, direct)
	if _, ok := b.Get("k"); !ok {
		t.Fatal("initial sync failed")
	}
	b.Delete("k")
	SyncPair(a, b, direct)
	if _, ok := a.Get("k"); ok {
		t.Error("delete did not propagate back")
	}
}

func TestSubscriptions(t *testing.T) {
	a := NewNode("a", Device, nil)
	b := NewNode("b", Device, nil)
	events := a.Subscribe(PrefixPred("location/"), 16)
	a.Put("location/car", []byte("x=1"))
	a.Put("photo/1", []byte("img")) // must not match
	b.Put("location/bike", []byte("y=2"))
	direct, _ := DefaultLinks()
	SyncPair(a, b, direct)

	got := map[string]bool{}
	timeout := time.After(time.Second)
	for len(got) < 2 {
		select {
		case e := <-events:
			got[e.Entry.Key] = e.Remote
		case <-timeout:
			t.Fatalf("only got %v", got)
		}
	}
	if remote, ok := got["location/car"]; !ok || remote {
		t.Errorf("local event wrong: %v", got)
	}
	if remote, ok := got["location/bike"]; !ok || !remote {
		t.Errorf("remote event wrong: %v", got)
	}
	select {
	case e := <-events:
		t.Errorf("unexpected event %v", e)
	default:
	}
}

func TestMeshConvergence(t *testing.T) {
	// 6 devices, each with private writes; ring gossip converges.
	var nodes []*Node
	for i := 0; i < 6; i++ {
		n := NewNode(fmt.Sprintf("dev%d", i), Device, nil)
		for j := 0; j < 5; j++ {
			n.Put(fmt.Sprintf("n%d/k%d", i, j), []byte("v"))
		}
		nodes = append(nodes, n)
	}
	direct, _ := DefaultLinks()
	res := Converge(nodes, nil, MeshP2P, direct, 0)
	if !res.Converged {
		t.Fatalf("mesh did not converge: %+v", res)
	}
	for _, n := range nodes {
		if len(n.Keys()) != 30 {
			t.Errorf("%s has %d keys", n.ID, len(n.Keys()))
		}
	}
}

func TestViaCloudAndLeaderConvergence(t *testing.T) {
	mk := func() ([]*Node, *Node) {
		var nodes []*Node
		for i := 0; i < 4; i++ {
			n := NewNode(fmt.Sprintf("dev%d", i), Device, nil)
			n.Put(fmt.Sprintf("k%d", i), []byte("v"))
			nodes = append(nodes, n)
		}
		return nodes, NewNode("relay", Cloud, nil)
	}
	_, internet := DefaultLinks()
	nodes, cloud := mk()
	res := Converge(nodes, cloud, ViaCloud, internet, 0)
	if !res.Converged {
		t.Fatalf("via-cloud did not converge: %+v", res)
	}
	direct, _ := DefaultLinks()
	nodes2, leader := mk()
	leader.Tier = Edge
	res2 := Converge(nodes2, leader, LeaderStar, direct, 0)
	if !res2.Converged {
		t.Fatalf("leader-star did not converge: %+v", res2)
	}
	// The paper's 10x link asymmetry shows up as faster local convergence.
	if res2.SimTime >= res.SimTime {
		t.Errorf("leader-star over radio (%v) should beat via-cloud (%v)", res2.SimTime, res.SimTime)
	}
}

func TestEventualConsistencyProperty(t *testing.T) {
	// Random concurrent writes on random nodes + enough mesh rounds must
	// always converge to one state.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(3)
		var nodes []*Node
		for i := 0; i < n; i++ {
			nodes = append(nodes, NewNode(fmt.Sprintf("n%d", i), Device, nil))
		}
		for op := 0; op < 50; op++ {
			node := nodes[rng.Intn(n)]
			key := fmt.Sprintf("k%d", rng.Intn(10))
			if rng.Float64() < 0.15 {
				node.Delete(key)
			} else {
				node.Put(key, []byte(fmt.Sprintf("v%d", op)))
			}
			// Occasional partial syncs mid-stream.
			if rng.Float64() < 0.2 {
				direct, _ := DefaultLinks()
				SyncPair(nodes[rng.Intn(n)], nodes[rng.Intn(n)], direct)
			}
		}
		direct, _ := DefaultLinks()
		res := Converge(nodes, nil, MeshP2P, direct, 0)
		return res.Converged
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDirectVsCloudBandwidthAndTime(t *testing.T) {
	// Same workload synced via D2D mesh vs via cloud relay: direct radio
	// must win on simulated time (E10's headline comparison).
	mkNodes := func() []*Node {
		var nodes []*Node
		for i := 0; i < 4; i++ {
			n := NewNode(fmt.Sprintf("d%d", i), Device, nil)
			for j := 0; j < 10; j++ {
				n.Put(fmt.Sprintf("n%d/k%d", i, j), make([]byte, 256))
			}
			nodes = append(nodes, n)
		}
		return nodes
	}
	direct, internet := DefaultLinks()
	meshRes := Converge(mkNodes(), nil, MeshP2P, direct, 0)
	cloudRes := Converge(mkNodes(), NewNode("cloud", Cloud, nil), ViaCloud, internet, 0)
	if !meshRes.Converged || !cloudRes.Converged {
		t.Fatal("did not converge")
	}
	if meshRes.SimTime >= cloudRes.SimTime {
		t.Errorf("mesh %v should be faster than via-cloud %v", meshRes.SimTime, cloudRes.SimTime)
	}
	if meshRes.Bytes == 0 || cloudRes.Bytes == 0 {
		t.Error("byte accounting missing")
	}
}

func TestSameStateDetectsDifferences(t *testing.T) {
	a := NewNode("a", Device, nil)
	b := NewNode("b", Device, nil)
	if !SameState(a, b) {
		t.Error("empty nodes should match")
	}
	a.Put("k", []byte("v"))
	if SameState(a, b) {
		t.Error("differing nodes should not match")
	}
}

func TestResourceSharingSyncFilter(t *testing.T) {
	// A storage-constrained watch only replicates health/*; it reads
	// photos through the phone on demand (§IV-B2 resource sharing).
	phone := NewNode("phone", Device, nil)
	watch := NewNode("watch", Device, nil)
	watch.SyncFilter = PrefixPred("health/")

	phone.Put("photos/1", make([]byte, 4096))
	phone.Put("photos/2", make([]byte, 4096))
	phone.Put("health/goal", []byte("10000"))
	watch.Put("health/heart_rate", []byte("61"))

	direct, _ := DefaultLinks()
	st, err := SyncPair(phone, watch, direct)
	if err != nil {
		t.Fatal(err)
	}
	// The watch pulled only the health key; photos stayed off-device.
	if st.EntriesAtoB != 1 {
		t.Errorf("watch pulled %d entries, want 1 (health only)", st.EntriesAtoB)
	}
	if _, ok := watch.Get("photos/1"); ok {
		t.Error("filtered key must not replicate to the watch")
	}
	if v, ok := watch.Get("health/goal"); !ok || string(v) != "10000" {
		t.Error("in-filter key must replicate")
	}
	// The phone (unfiltered) still pulled the watch's health data.
	if _, ok := phone.Get("health/heart_rate"); !ok {
		t.Error("phone must receive the watch's writes")
	}

	// On-demand read through the peer: a request and its reply on the
	// fabric.
	msgsBefore := syncMsgs(direct)
	v, ok := watch.FetchVia("photos/1", []*Node{phone}, direct)
	if !ok || len(v) != 4096 {
		t.Fatalf("FetchVia = %d bytes, %v", len(v), ok)
	}
	if msgs := syncMsgs(direct); msgs != msgsBefore+2 {
		t.Errorf("peer fetch sent %d messages, want a request and a reply", msgs-msgsBefore)
	}
	// Still not cached (filter excludes it).
	if _, ok := watch.Get("photos/1"); ok {
		t.Error("fetched-but-filtered key must not be cached")
	}
	// Misses report cleanly.
	if _, ok := watch.FetchVia("photos/404", []*Node{phone}, direct); ok {
		t.Error("missing key should miss")
	}
}

func TestFetchViaCachesInFilterKeys(t *testing.T) {
	a := NewNode("a", Device, nil)
	b := NewNode("b", Device, nil)
	b.SyncFilter = PrefixPred("shared/")
	a.Put("shared/doc", []byte("v1"))
	direct, _ := DefaultLinks()
	if v, ok := b.FetchVia("shared/doc", []*Node{a}, direct); !ok || string(v) != "v1" {
		t.Fatal("fetch failed")
	}
	// Cached now: second read is local (no fabric traffic).
	msgs := syncMsgs(direct)
	if v, ok := b.FetchVia("shared/doc", []*Node{a}, direct); !ok || string(v) != "v1" {
		t.Error("in-filter fetch must cache")
	}
	if syncMsgs(direct) != msgs {
		t.Error("cached read must not touch the fabric")
	}
}

// TestConvergeReportsItsOwnTraffic: a run's messages, bytes and time are
// its own, not the lifetime totals of the network it ran on — two equal
// workloads converged one after the other over one fabric report alike.
func TestConvergeReportsItsOwnTraffic(t *testing.T) {
	mkNodes := func() []*Node {
		var nodes []*Node
		for i := 0; i < 3; i++ {
			n := NewNode(fmt.Sprintf("d%d", i), Device, nil)
			for j := 0; j < 4; j++ {
				n.Put(fmt.Sprintf("n%d/k%d", i, j), make([]byte, 64))
			}
			nodes = append(nodes, n)
		}
		return nodes
	}
	direct, _ := DefaultLinks()
	first := Converge(mkNodes(), NewNode("router", Edge, nil), LeaderStar, direct, 0)
	second := Converge(mkNodes(), NewNode("router", Edge, nil), LeaderStar, direct, 0)
	if !first.Converged || !second.Converged {
		t.Fatalf("did not converge: %+v, %+v", first, second)
	}
	if first.Messages != second.Messages || first.Bytes != second.Bytes || first.SimTime != second.SimTime {
		t.Errorf("equal runs report differently: first %+v, second %+v", first, second)
	}
}

// seededNodes builds n devices holding keys private writes each.
func seededNodes(n, keys int) []*Node {
	var nodes []*Node
	for i := 0; i < n; i++ {
		node := NewNode(fmt.Sprintf("dev%d", i), Device, nil)
		for j := 0; j < keys; j++ {
			node.Put(fmt.Sprintf("n%d/k%d", i, j), []byte("v"))
		}
		nodes = append(nodes, node)
	}
	return nodes
}

// requireNoLossNoDup checks §IV-B2's guarantee after faults: every write
// reached every node, and no node ever received a version it already had.
func requireNoLossNoDup(t *testing.T, nodes []*Node, keys int) {
	t.Helper()
	for _, n := range nodes {
		if got := len(n.Keys()); got != len(nodes)*keys {
			t.Errorf("%s holds %d keys, want %d", n.ID, got, len(nodes)*keys)
		}
		if _, redundant := n.Stats(); redundant != 0 {
			t.Errorf("%s received %d redundant versions", n.ID, redundant)
		}
	}
}

// TestSyncSurvivesLostDelta drops one entry batch: the exchange reports
// the loss, the receiver applies nothing of it, and the next anti-entropy
// pass ships it again — nothing lost, nothing twice.
func TestSyncSurvivesLostDelta(t *testing.T) {
	direct, _ := DefaultLinks()
	nodes := seededNodes(2, 10)
	a, b := nodes[0], nodes[1]
	direct.InjectFault(a.Endpoint(), b.Endpoint(), transport.Fault{
		Types: []transport.MsgType{transport.DSyncDelta}, Drop: true, Count: 1,
	})
	appliedBefore, _ := b.Stats()
	st, err := SyncPair(a, b, direct)
	if !errors.Is(err, transport.ErrDropped) {
		t.Fatalf("exchange with a dropped delta returned %v, want ErrDropped", err)
	}
	if applied, _ := b.Stats(); applied != appliedBefore || st.EntriesAtoB != 0 {
		t.Errorf("b applied %d entries of a batch it never received (stats %+v)", applied-appliedBefore, st)
	}
	if _, ok := b.Get("n0/k0"); ok {
		t.Error("a key of the lost batch reached b")
	}
	if d := direct.Stats().Get(transport.DSyncDelta).Dropped; d != 1 {
		t.Errorf("fabric counted %d dropped deltas, want 1", d)
	}

	res := Converge(nodes, nil, MeshP2P, direct, 0)
	if !res.Converged || res.Failed != 0 {
		t.Fatalf("converge after the loss: %+v", res)
	}
	requireNoLossNoDup(t, nodes, 10)
}

// TestSyncHealsAfterPartition cuts one device off for a capped run: its
// exchanges fail and it receives nothing, the rest keep syncing; after
// Heal every write reaches every node, none twice.
func TestSyncHealsAfterPartition(t *testing.T) {
	direct, _ := DefaultLinks()
	nodes := seededNodes(4, 5)
	cut := nodes[1]
	direct.Partition(cut.Endpoint())
	res := Converge(nodes, nil, MeshP2P, direct, 2)
	if res.Converged || res.Failed == 0 {
		t.Fatalf("partitioned run: %+v, want failed exchanges and no convergence", res)
	}
	if got := len(cut.Keys()); got != 5 {
		t.Errorf("partitioned device holds %d keys, want only its own 5", got)
	}
	if applied, _ := cut.Stats(); applied != 5 {
		t.Errorf("partitioned device applied %d versions, want its own 5", applied)
	}

	direct.Heal()
	if res = Converge(nodes, nil, MeshP2P, direct, 0); !res.Converged || res.Failed != 0 {
		t.Fatalf("healed run: %+v", res)
	}
	requireNoLossNoDup(t, nodes, 5)
}
