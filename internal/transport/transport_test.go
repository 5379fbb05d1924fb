package transport

import (
	"errors"
	"slices"
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
	if got := st.Total(); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
	if d := st.Sub(st); d.Total() != 0 || d.TotalBytes() != 0 {
		t.Fatalf("self-delta not zero: %+v", d)
	}
	f.ResetCounters()
	if f.Stats().Total() != 0 {
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
// one message type, with the per-direction split recoverable from the
// recording and a measurement window recoverable via Stats.Sub.
func TestScanFragLegAccounting(t *testing.T) {
	f := New(Config{})
	f.Record(true)
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
	for _, m := range recordedMsgs(f) {
		switch {
		case m.From == CN() && m.To.Kind == KindDN:
			reqLeg += int64(m.Bytes)
			if m.Bytes != bloomBytes {
				t.Fatalf("request leg to %v carried %d B, want %d", m.To, m.Bytes, bloomBytes)
			}
		case m.From.Kind == KindDN && m.To == CN():
			respLeg += int64(m.Bytes)
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

// sleepLog is a recording Config.Sleep: it keeps every wait and sleeps for
// none of them.
type sleepLog struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (l *sleepLog) sleep(d time.Duration) {
	l.mu.Lock()
	l.waits = append(l.waits, d)
	l.mu.Unlock()
}

func (l *sleepLog) take() []time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.waits
	l.waits = nil
	return out
}

// recordedMsgs flattens f's recording into its messages, in order.
func recordedMsgs(f *Fabric) []Msg {
	var out []Msg
	for _, e := range f.Recorded() {
		out = append(out, e.Msgs...)
	}
	return out
}

// waveFabric builds a fabric with the recorder on, a partitioned dn2 and a
// drop fault on cn -> dn1: one wave over dn0..dn3 then meets every way a
// message can end (delivered, dropped, partitioned).
func waveFabric(log *sleepLog) *Fabric {
	f := New(Config{BaseLatency: time.Millisecond, Bandwidth: 1e6, Sleep: log.sleep})
	f.Record(true)
	f.Partition(DN(2))
	f.InjectFault(CN(), DN(1), Fault{Types: []MsgType{Prepare}, Drop: true, Count: 1})
	return f
}

// TestWaveAccountsLikeSends: Wave has no accounting of its own — over N
// endpoints it leaves every counter the fabric keeps (per type, per data
// node, dropped) and the recorded messages exactly as N Sends do, and
// reports the same per-endpoint losses.
func TestWaveAccountsLikeSends(t *testing.T) {
	tos := []Endpoint{DN(0), DN(1), DN(2), DN(3)}
	const payload = 100

	var sendLog, waveLog sleepLog
	bySend, byWave := waveFabric(&sendLog), waveFabric(&waveLog)
	sendErrs := make([]error, len(tos))
	for i, to := range tos {
		sendErrs[i] = bySend.Send(CN(), to, Prepare, payload)
	}
	waveErrs := byWave.Wave(CN(), tos, Prepare, payload)

	if len(waveErrs) != len(tos) {
		t.Fatalf("Wave with losses returned %d errors, want one slot per endpoint (%d)", len(waveErrs), len(tos))
	}
	for i := range tos {
		if (sendErrs[i] == nil) != (waveErrs[i] == nil) {
			t.Fatalf("%v: Send err %v, Wave err %v", tos[i], sendErrs[i], waveErrs[i])
		}
	}
	if !errors.Is(waveErrs[1], ErrDropped) || !errors.Is(waveErrs[2], ErrPartitioned) {
		t.Fatalf("Wave losses = %v, want dn1 dropped and dn2 partitioned", waveErrs)
	}
	if a, b := bySend.Stats(), byWave.Stats(); a != b {
		t.Fatalf("Stats differ:\n sends %+v\n wave  %+v", a.Get(Prepare), b.Get(Prepare))
	}
	if got := byWave.Stats().Get(Prepare); got.Count != 2 || got.Dropped != 2 || got.Bytes != 2*payload {
		t.Fatalf("prepare stats = %+v, want 2 delivered, 2 dropped, %d B", got, 2*payload)
	}
	if a, b := bySend.DNStats(), byWave.DNStats(); !slices.Equal(a, b) {
		t.Fatalf("DNStats differ:\n sends %+v\n wave  %+v", a, b)
	}
	if a, b := recordedMsgs(bySend), recordedMsgs(byWave); len(a) != 2 || !slices.Equal(a, b) {
		t.Fatalf("recorded messages differ (or are not the 2 delivered):\n sends %+v\n wave  %+v", a, b)
	}

	// What differs is the waiting: one wait per delivered Send, one per Wave.
	if got := len(sendLog.take()); got != 2 {
		t.Fatalf("2 delivered Sends waited %d times", got)
	}
	if got := waveLog.take(); len(got) != 1 || got[0] != time.Millisecond+100*time.Microsecond {
		t.Fatalf("Wave waited %v, want once for 1.1ms (latency + 100 B at 1 MB/s)", got)
	}

	// Everything delivered: no error slice at all.
	byWave.Heal()
	if errs := byWave.Wave(CN(), tos, Prepare, 0); errs != nil {
		t.Fatalf("clean Wave returned %v, want nil", errs)
	}
	// Nothing delivered: nothing to wait for.
	byWave.Partition(tos...)
	waveLog.take()
	if errs := byWave.Wave(CN(), tos, Prepare, 0); len(errs) != len(tos) {
		t.Fatalf("fully partitioned Wave returned %v", errs)
	}
	if got := waveLog.take(); len(got) != 0 {
		t.Fatalf("a Wave that delivered nothing waited %v", got)
	}
}

// TestWaveWaitsForSlowestLink: the wave's wait is the max over its links,
// not their sum, and a wave of one endpoint is a Send.
func TestWaveWaitsForSlowestLink(t *testing.T) {
	var log sleepLog
	f := New(Config{BaseLatency: time.Millisecond, Sleep: log.sleep})
	f.SetLinkLatency(CN(), DN(1), Latency{Base: 7 * time.Millisecond})
	f.SetLinkLatency(CN(), DN(2), Latency{Base: 3 * time.Millisecond})
	tos := []Endpoint{DN(0), DN(1), DN(2)}

	if errs := f.Wave(CN(), tos, Commit, 0); errs != nil {
		t.Fatal(errs)
	}
	if got := log.take(); len(got) != 1 || got[0] != 7*time.Millisecond {
		t.Fatalf("Wave waited %v, want once for the slowest link (7ms), not the sum (11ms)", got)
	}

	// A lost message does not set the pace: only delivered links are waited for.
	f.InjectFault(CN(), DN(1), Fault{Drop: true, Count: 1})
	if errs := f.Wave(CN(), tos, Commit, 0); errs == nil || errs[1] == nil || errs[0] != nil || errs[2] != nil {
		t.Fatalf("Wave errors = %v, want only dn1 lost", errs)
	}
	if got := log.take(); len(got) != 1 || got[0] != 3*time.Millisecond {
		t.Fatalf("Wave with dn1 lost waited %v, want once for 3ms", got)
	}

	// One endpoint: same wait, same counters, same error as Send.
	for _, to := range []Endpoint{DN(1), DN(2)} {
		base := f.Stats()
		if errs := f.Wave(CN(), []Endpoint{to}, Commit, 0); errs != nil {
			t.Fatal(errs)
		}
		waved, wavedStats := log.take(), f.Stats().Sub(base)
		base = f.Stats()
		if err := f.Send(CN(), to, Commit, 0); err != nil {
			t.Fatal(err)
		}
		sent, sentStats := log.take(), f.Stats().Sub(base)
		if len(waved) != 1 || len(sent) != 1 || waved[0] != sent[0] || wavedStats != sentStats {
			t.Fatalf("%v: Wave of one waited %v (%+v), Send waited %v (%+v)", to, waved, wavedStats.Get(Commit), sent, sentStats.Get(Commit))
		}
	}
	f.Partition(DN(2))
	errs := f.Wave(CN(), []Endpoint{DN(2)}, Commit, 0)
	if len(errs) != 1 || !errors.Is(errs[0], ErrPartitioned) {
		t.Fatalf("Wave of one partitioned endpoint = %v, want [ErrPartitioned]", errs)
	}
}

// TestPostAccountsWithoutWaiting: Post is Send minus the wait — counted,
// fault-checked, priced, never slept for.
func TestPostAccountsWithoutWaiting(t *testing.T) {
	var log sleepLog
	f := New(Config{BaseLatency: 2 * time.Millisecond, Bandwidth: 1e6, Sleep: log.sleep})
	d, err := f.Post(DN(0), CN(), ScanFrag, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if d != 3*time.Millisecond {
		t.Fatalf("Post delay = %v, want 3ms (2ms link + 1000 B at 1 MB/s)", d)
	}
	if got := f.Stats().Get(ScanFrag); got.Count != 1 || got.Bytes != 1000 {
		t.Fatalf("scan_frag stats = %+v", got)
	}
	f.InjectFault(CN(), DN(0), Fault{Drop: true, Count: 1})
	if _, err := f.Post(CN(), DN(0), Commit, 0); !errors.Is(err, ErrDropped) {
		t.Fatalf("Post through a drop fault: %v", err)
	}
	if got := f.Stats().Get(Commit); got.Count != 0 || got.Dropped != 1 {
		t.Fatalf("commit stats = %+v, want the loss counted", got)
	}
	if got := log.take(); len(got) != 0 {
		t.Fatalf("Post waited %v", got)
	}
}

// TestStreamPaysOncePerStream: however many batches a stream carries, its
// sender waits once — the slowest link latency plus the payload time of all
// bytes — while every batch is still its own accounted, droppable message.
func TestStreamPaysOncePerStream(t *testing.T) {
	var log sleepLog
	f := New(Config{BaseLatency: time.Millisecond, Bandwidth: 1e6, Sleep: log.sleep})
	f.SetLinkLatency(DN(0), DN(2), Latency{Base: 4 * time.Millisecond})
	for _, batches := range []int{1, 3, 40} {
		base := f.Stats()
		s := f.Stream()
		for i := 0; i < batches; i++ {
			if err := s.Post(DN(0), DN(1+i%2), ShufflePart, 500); err != nil {
				t.Fatal(err)
			}
		}
		if got := log.take(); len(got) != 0 {
			t.Fatalf("%d batches: posting waited %v", batches, got)
		}
		s.Wait()
		lat := time.Millisecond
		if batches > 1 {
			lat = 4 * time.Millisecond // some batch crossed the slow link
		}
		want := lat + time.Duration(batches)*500*time.Microsecond
		if got := log.take(); len(got) != 1 || got[0] != want {
			t.Fatalf("%d batches: stream waited %v, want once for %v", batches, got, want)
		}
		if got := f.Stats().Sub(base).Get(ShufflePart); got.Count != int64(batches) || got.Bytes != int64(batches)*500 {
			t.Fatalf("%d batches: shuffle_part stats = %+v", batches, got)
		}
	}

	// A lost batch fails its Post and is not billed.
	f.InjectFault(DN(0), DN(1), Fault{Types: []MsgType{ShufflePart}, Drop: true, Count: 1})
	s := f.Stream()
	if err := s.Post(DN(0), DN(1), ShufflePart, 500); !errors.Is(err, ErrDropped) {
		t.Fatalf("Post through a drop fault: %v", err)
	}
	s.Wait()
	if got := log.take(); len(got) != 0 {
		t.Fatalf("a stream that delivered nothing waited %v", got)
	}
}

// TestRecordListsWaits: a recording lists one entry per Send, Wave and
// Stream.Wait with the messages delivered to it, one unawaited entry per
// bare Post, nothing for a lost message — and, off, costs Send, Wave and a
// stream no allocation.
func TestRecordListsWaits(t *testing.T) {
	f := New(Config{})
	f.InjectFault(CN(), DN(1), Fault{Types: []MsgType{Prepare}, Drop: true, Count: 1})
	f.Record(true)
	_ = f.Send(CN(), GTM(), GTMRound, 0)
	f.Wave(CN(), []Endpoint{DN(0), DN(1), DN(2)}, Prepare, 0)
	s := f.Stream()
	_ = s.Post(DN(0), DN(1), ShufflePart, 8)
	_ = s.Post(DN(0), DN(2), ShufflePart, 8)
	s.Wait()
	_, _ = f.Post(CN(), DN(0), Commit, 0)
	_ = f.Send(CN(), DN(1), Prepare, 0) // the fault has fired: delivered
	f.InjectFault(CN(), DN(3), Fault{Drop: true})
	_ = f.Send(CN(), DN(3), Write, 0)
	want := []Entry{
		{Awaited: true, Msgs: []Msg{{CN(), GTM(), GTMRound, 0}}},
		{Awaited: true, Msgs: []Msg{{CN(), DN(0), Prepare, 0}, {CN(), DN(2), Prepare, 0}}},
		{Awaited: true, Msgs: []Msg{{DN(0), DN(1), ShufflePart, 8}, {DN(0), DN(2), ShufflePart, 8}}},
		{Msgs: []Msg{{CN(), DN(0), Commit, 0}}},
		{Awaited: true, Msgs: []Msg{{CN(), DN(1), Prepare, 0}}},
	}
	got := f.Recorded()
	if !slices.EqualFunc(got, want, func(a, b Entry) bool { return a.Awaited == b.Awaited && slices.Equal(a.Msgs, b.Msgs) }) {
		t.Fatalf("recorded %+v\nwant     %+v", got, want)
	}
	if got := f.Recorded(); got != nil {
		t.Fatalf("a second Recorded returned %+v, want a fresh list", got)
	}

	f.Record(false)
	f.ClearFaults()
	tos := []Endpoint{DN(0), DN(1)}
	allocs := testing.AllocsPerRun(100, func() {
		_ = f.Send(CN(), DN(0), Write, 0)
		f.Wave(CN(), tos, Commit, 0)
		s := f.Stream()
		_ = s.Post(DN(0), DN(1), ShufflePart, 8)
		s.Wait()
	})
	if allocs != 0 || f.Recorded() != nil {
		t.Fatalf("recording off: %v allocations per round, recorded %v", allocs, f.Recorded())
	}
}

// TestWaitedSumsRealizedDelays pins the accounted clock: Waited grows by
// what each Send, Wave and Stream.Wait waited for — also when Sleep does
// nothing — and not for a bare Post or a lost message.
func TestWaitedSumsRealizedDelays(t *testing.T) {
	f := New(Config{BaseLatency: 5 * time.Millisecond, Sleep: func(time.Duration) {}})
	f.SetLinkLatency(CN(), DN(2), Latency{Base: 7 * time.Millisecond})
	if err := f.Send(CN(), DN(0), Write, 0); err != nil {
		t.Fatal(err)
	}
	f.Wave(CN(), []Endpoint{DN(1), DN(2)}, Prepare, 0) // slowest link: 7 ms
	s := f.Stream()
	if err := s.Post(DN(0), CN(), ScanFrag, 0); err != nil {
		t.Fatal(err)
	}
	s.Wait()
	if _, err := f.Post(CN(), DN(0), Commit, 0); err != nil {
		t.Fatal(err)
	}
	f.Partition(DN(3))
	if err := f.Send(CN(), DN(3), Write, 0); err == nil {
		t.Fatal("send across a partition succeeded")
	}
	if got, want := f.Waited(), 17*time.Millisecond; got != want {
		t.Errorf("Waited = %v, want %v", got, want)
	}
}
