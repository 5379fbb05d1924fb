package transport

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCountersByType(t *testing.T) {
	f := New(Config{})
	if err := f.Send(CN(), DN(0), Prepare, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(CN(), DN(1), Prepare, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(CN(), GTM(), GTMRound, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(DN(0), CN(), ScanFrag, 128); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if got := st.Get(Prepare).Count; got != 2 {
		t.Fatalf("prepare count = %d, want 2", got)
	}
	if got := st.Get(GTMRound).Count; got != 1 {
		t.Fatalf("gtm_round count = %d, want 1", got)
	}
	if got := st.Get(ScanFrag).Bytes; got != 128 {
		t.Fatalf("scan_frag bytes = %d, want 128", got)
	}
	if got := f.Total(); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	if d := st.Sub(st); d.Total() != 0 || d.TotalBytes() != 0 {
		t.Fatalf("self-delta not zero: %+v", d)
	}
	f.ResetCounters()
	if f.Total() != 0 {
		t.Fatal("reset left counters non-zero")
	}
}

func TestBaseLatencySleeps(t *testing.T) {
	var slept atomic.Int64
	f := New(Config{BaseLatency: 3 * time.Millisecond, Sleep: func(d time.Duration) { slept.Add(int64(d)) }})
	if err := f.Send(CN(), DN(0), Write, 0); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(slept.Load()); got != 3*time.Millisecond {
		t.Fatalf("slept %v, want 3ms", got)
	}
	f.SetBaseLatency(0)
	slept.Store(0)
	if err := f.Send(CN(), DN(0), Write, 0); err != nil {
		t.Fatal(err)
	}
	if slept.Load() != 0 {
		t.Fatal("zero latency still slept")
	}
}

// TestSetBaseLatencyConcurrent is the regression for a data race on the
// latency setting: writers tune the latency while senders read it (run
// under -race).
func TestSetBaseLatencyConcurrent(t *testing.T) {
	f := New(Config{Sleep: func(time.Duration) {}})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			f.SetBaseLatency(time.Duration(i%3) * time.Microsecond)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_ = f.Send(CN(), DN(i%4), Commit, 0)
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestLinkLatencyOverrideAndJitter(t *testing.T) {
	var last atomic.Int64
	f := New(Config{BaseLatency: time.Millisecond, Sleep: func(d time.Duration) { last.Store(int64(d)) }})
	f.SetLinkLatency(CN(), DN(1), Latency{Base: 10 * time.Millisecond, Jitter: 5 * time.Millisecond})
	if err := f.Send(CN(), DN(1), Write, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(last.Load()); d < 10*time.Millisecond || d >= 15*time.Millisecond {
		t.Fatalf("override latency %v outside [10ms,15ms)", d)
	}
	// Other links keep the base latency.
	if err := f.Send(CN(), DN(0), Write, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(last.Load()); d != time.Millisecond {
		t.Fatalf("base link slept %v, want 1ms", d)
	}
	// Removing the override restores the base.
	f.SetLinkLatency(CN(), DN(1), Latency{})
	if err := f.Send(CN(), DN(1), Write, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(last.Load()); d != time.Millisecond {
		t.Fatalf("cleared link slept %v, want 1ms", d)
	}
}

func TestBandwidthChargesPayload(t *testing.T) {
	var last atomic.Int64
	f := New(Config{Bandwidth: 1e6, Sleep: func(d time.Duration) { last.Store(int64(d)) }}) // 1 MB/s
	if err := f.Send(DN(0), DN(1), RebalCopy, 500_000); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(last.Load()); d != 500*time.Millisecond {
		t.Fatalf("payload delay %v, want 500ms", d)
	}
	// No bandwidth: payload is free.
	f.SetBandwidth(0)
	last.Store(0)
	if err := f.Send(DN(0), DN(1), RebalCopy, 500_000); err != nil {
		t.Fatal(err)
	}
	if last.Load() != 0 {
		t.Fatal("payload charged with bandwidth disabled")
	}
}

func TestDropFaultCountLimited(t *testing.T) {
	f := New(Config{})
	f.InjectFault(DN(0), DN(1), Fault{Types: []MsgType{RebalCopy}, Drop: true, Count: 2})
	for i := 0; i < 2; i++ {
		err := f.Send(DN(0), DN(1), RebalCopy, 0)
		if !errors.Is(err, ErrDropped) || !errors.Is(err, ErrUnreachable) {
			t.Fatalf("send %d: err = %v, want ErrDropped", i, err)
		}
	}
	// Fault exhausted; other types never matched.
	if err := f.Send(DN(0), DN(1), RebalCopy, 0); err != nil {
		t.Fatalf("post-fault send failed: %v", err)
	}
	if err := f.Send(DN(0), DN(1), ReplShip, 0); err != nil {
		t.Fatalf("unmatched type dropped: %v", err)
	}
	st := f.Stats()
	if st.Get(RebalCopy).Dropped != 2 || st.Get(RebalCopy).Count != 1 {
		t.Fatalf("rebal_copy stats = %+v", st.Get(RebalCopy))
	}
}

func TestDelayFault(t *testing.T) {
	var last atomic.Int64
	f := New(Config{Sleep: func(d time.Duration) { last.Store(int64(d)) }})
	f.InjectFault(CN(), GTM(), Fault{Delay: 7 * time.Millisecond})
	if err := f.Send(CN(), GTM(), GTMRound, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Duration(last.Load()); d != 7*time.Millisecond {
		t.Fatalf("delay fault slept %v, want 7ms", d)
	}
	f.ClearFaults()
	last.Store(0)
	if err := f.Send(CN(), GTM(), GTMRound, 0); err != nil {
		t.Fatal(err)
	}
	if last.Load() != 0 {
		t.Fatal("cleared fault still delayed")
	}
}

func TestPartition(t *testing.T) {
	f := New(Config{})
	f.Partition(DN(0))
	// Across the cut, both directions fail.
	if err := f.Send(CN(), DN(0), Commit, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("cn->dn0: %v, want ErrPartitioned", err)
	}
	if err := f.Send(DN(0), DN(1), ReplShip, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dn0->dn1: %v, want ErrPartitioned", err)
	}
	// Traffic among the majority side flows.
	if err := f.Send(CN(), DN(1), Commit, 0); err != nil {
		t.Fatalf("cn->dn1: %v", err)
	}
	if !f.Unreachable(DN(0)) || f.Unreachable(DN(1)) {
		t.Fatal("Unreachable misreports the partition")
	}
	// Two isolated endpoints can still talk to each other.
	f.Partition(DN(0), DN(2))
	if err := f.Send(DN(0), DN(2), ReplShip, 0); err != nil {
		t.Fatalf("dn0->dn2 within isolated side: %v", err)
	}
	f.Heal()
	if err := f.Send(CN(), DN(0), Commit, 0); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
	if f.Unreachable(DN(0)) {
		t.Fatal("healed endpoint still unreachable")
	}
}

// TestCutLinks covers the asymmetric failure: a DN cut off from the
// coordinator while its replication link to another DN still works.
func TestCutLinks(t *testing.T) {
	f := New(Config{})
	f.CutLinks(CN(), DN(0))
	if err := f.Send(CN(), DN(0), Commit, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("cn->dn0: %v, want ErrPartitioned", err)
	}
	if err := f.Send(DN(0), CN(), ScanFrag, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dn0->cn: %v, want ErrPartitioned", err)
	}
	// The replication link and the rest of the fabric are unaffected.
	if err := f.Send(DN(0), DN(1), ReplShip, 0); err != nil {
		t.Fatalf("dn0->dn1: %v", err)
	}
	if err := f.Send(CN(), DN(1), Commit, 0); err != nil {
		t.Fatalf("cn->dn1: %v", err)
	}
	// From the coordinator's point of view the node is down.
	if !f.Unreachable(DN(0)) || f.Unreachable(DN(1)) {
		t.Fatal("Unreachable misreports the severed CN link")
	}
	// Cuts accumulate and compose with Partition.
	f.CutLinks(DN(1), DN(2))
	if err := f.Send(DN(1), DN(2), ReplShip, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("dn1->dn2: %v, want ErrPartitioned", err)
	}
	f.Partition(DN(3))
	if err := f.Send(CN(), DN(0), Commit, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatal("Partition() wiped the severed links")
	}
	if err := f.Send(CN(), DN(3), Commit, 0); !errors.Is(err, ErrPartitioned) {
		t.Fatal("isolated set not applied")
	}
	f.Heal()
	if err := f.Send(CN(), DN(0), Commit, 0); err != nil {
		t.Fatalf("post-heal: %v", err)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, mt := range MsgTypes() {
		s := mt.String()
		if s == "" || seen[s] {
			t.Fatalf("bad or duplicate name %q", s)
		}
		seen[s] = true
	}
}

// TestScanFragLegAccounting pins down the wire accounting contract the NDP
// scan path relies on: scan_frag request legs (CN->DN, zero bytes except a
// pushed bloom filter) and response legs (DN->CN, the shipped batch) share
// one message type, with the per-direction split recoverable from the link
// counters and a measurement window recoverable via Stats.Sub.
func TestScanFragLegAccounting(t *testing.T) {
	f := New(Config{})
	f.TrackLinks(true)
	const bloomBytes = 64
	resp := []int{800, 0, 160, 240}
	for dn := 0; dn < 4; dn++ {
		if err := f.Send(CN(), DN(dn), ScanFrag, bloomBytes); err != nil {
			t.Fatal(err)
		}
		if err := f.Send(DN(dn), CN(), ScanFrag, resp[dn]); err != nil {
			t.Fatal(err)
		}
	}
	var respTotal int64
	for _, b := range resp {
		respTotal += int64(b)
	}
	st := f.Stats()
	if got := st.Get(ScanFrag).Count; got != 8 {
		t.Fatalf("scan_frag count = %d, want 8 (4 request + 4 response legs)", got)
	}
	if got, want := st.Get(ScanFrag).Bytes, int64(4*bloomBytes)+respTotal; got != want {
		t.Fatalf("scan_frag bytes = %d, want %d", got, want)
	}
	var reqLeg, respLeg int64
	for _, ls := range f.LinkStats() {
		switch {
		case ls.From == CN() && ls.To.Kind == KindDN:
			reqLeg += ls.Bytes
			if ls.Bytes != bloomBytes {
				t.Fatalf("request leg to %v carried %d B, want %d", ls.To, ls.Bytes, bloomBytes)
			}
		case ls.From.Kind == KindDN && ls.To == CN():
			respLeg += ls.Bytes
		}
	}
	if reqLeg != 4*bloomBytes {
		t.Fatalf("request legs = %d B, want %d", reqLeg, 4*bloomBytes)
	}
	if respLeg != respTotal {
		t.Fatalf("response legs = %d B, want %d", respLeg, respTotal)
	}

	// A measured window: everything before the snapshot cancels out.
	base := f.Stats()
	if err := f.Send(DN(2), CN(), ScanFrag, 320); err != nil {
		t.Fatal(err)
	}
	d := f.Stats().Sub(base)
	if got := d.Get(ScanFrag).Count; got != 1 {
		t.Fatalf("window count = %d, want 1", got)
	}
	if got := d.Get(ScanFrag).Bytes; got != 320 {
		t.Fatalf("window bytes = %d, want 320", got)
	}
	if got := d.TotalBytes(); got != 320 {
		t.Fatalf("window total bytes = %d, want 320", got)
	}
}
