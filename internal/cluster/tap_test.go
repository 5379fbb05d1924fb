package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// recordingTap collects the per-DN record stream and optionally returns a
// wait func that counts its own invocations (to prove fan-out composes
// waits from every subscriber without deadlocking commits).
type recordingTap struct {
	mu      sync.Mutex
	byDN    map[int][]WriteRec
	useWait bool
	waits   atomic.Int64
}

func newRecordingTap(useWait bool) *recordingTap {
	return &recordingTap{byDN: map[int][]WriteRec{}, useWait: useWait}
}

func (rt *recordingTap) Committed(dnID int, recs []WriteRec) func() {
	rt.mu.Lock()
	rt.byDN[dnID] = append(rt.byDN[dnID], recs...)
	rt.mu.Unlock()
	if !rt.useWait {
		return nil
	}
	return func() { rt.waits.Add(1) }
}

func (rt *recordingTap) stream(dn int) []WriteRec {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]WriteRec(nil), rt.byDN[dn]...)
}

// TestCommitTapFanOut drives writes with three AddCommitTap subscribers
// installed at once (the replication manager, the HTAP manager and one
// more), two of them returning wait funcs — every commit must drain
// without deadlock, every subscriber must see the identical stream in
// per-DN commit order, all the composed waits must run, and each detach
// func must remove exactly its own subscription.
func TestCommitTapFanOut(t *testing.T) {
	c := newCluster(t, 3, ModeGTMLite)
	s := setupAccounts(t, c, 10)

	primary := newRecordingTap(true)
	extraA := newRecordingTap(true)
	extraB := newRecordingTap(false)
	detachPrimary := c.AddCommitTap(primary)
	detachA := c.AddCommitTap(extraA)
	defer c.AddCommitTap(extraB)()

	const writers, each = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := c.NewSession()
			for i := 0; i < each; i++ {
				id := 1000 + w*each + i
				mustExec(t, sess, fmt.Sprintf("INSERT INTO accounts VALUES (%d, %d, 5)", id, id%10))
			}
		}(w)
	}
	wg.Wait()
	mustExec(t, s, "UPDATE accounts SET balance = 7 WHERE id = 3")
	mustExec(t, s, "DELETE FROM accounts WHERE id = 4")

	total := 0
	for dn := 0; dn < 3; dn++ {
		ps, as := primary.stream(dn), extraA.stream(dn)
		if len(ps) != len(as) {
			t.Fatalf("dn%d: primary tap saw %d records, extra saw %d", dn, len(ps), len(as))
		}
		total += len(ps)
		// Same per-DN commit order on every subscriber: both taps are
		// invoked under the same commit lock, so the sequences must match
		// record for record.
		for i := range ps {
			if ps[i].Op != as[i].Op || ps[i].Table != as[i].Table {
				t.Fatalf("dn%d record %d: primary %v/%s extra %v/%s",
					dn, i, ps[i].Op, ps[i].Table, as[i].Op, as[i].Table)
			}
		}
		bs := extraB.stream(dn)
		if len(bs) != len(ps) {
			t.Fatalf("dn%d: no-wait tap saw %d records, want %d", dn, len(bs), len(ps))
		}
	}
	// Taps were installed after the 10 seed rows: they see only the
	// concurrent inserts plus the update and delete.
	if want := writers*each + 2; total != want {
		t.Fatalf("taps saw %d records across DNs, want %d", total, want)
	}
	if primary.waits.Load() == 0 || extraA.waits.Load() == 0 {
		t.Fatalf("composed waits did not run (primary=%d extraA=%d)",
			primary.waits.Load(), extraA.waits.Load())
	}

	// Detaching one extra must not disturb the others.
	detachA()
	before := len(extraA.stream(0)) + len(extraA.stream(1)) + len(extraA.stream(2))
	mustExec(t, s, "INSERT INTO accounts VALUES (9001, 1, 5)")
	after := len(extraA.stream(0)) + len(extraA.stream(1)) + len(extraA.stream(2))
	if after != before {
		t.Fatal("detached tap still receiving records")
	}

	// Nor may detaching the first subscriber (repl teardown while HTAP stays
	// up), and a second call of the same detach func is a no-op.
	detachPrimary()
	detachPrimary()
	bBefore := len(extraB.stream(0)) + len(extraB.stream(1)) + len(extraB.stream(2))
	mustExec(t, s, "INSERT INTO accounts VALUES (9002, 2, 5)")
	bAfter := len(extraB.stream(0)) + len(extraB.stream(1)) + len(extraB.stream(2))
	if bAfter != bBefore+1 {
		t.Fatalf("remaining tap missed a record after the first one detached: %d -> %d", bBefore, bAfter)
	}
	pTotal := len(primary.stream(0)) + len(primary.stream(1)) + len(primary.stream(2))
	if pTotal != total+1 { // saw 9001 but not 9002
		t.Fatalf("detached tap saw %d records, want %d", pTotal, total+1)
	}
}

// TestCommitTapOrderPerDN asserts strict per-DN commit-order delivery:
// sequential single-row inserts routed to one shard must arrive at the tap
// in exactly the order they committed.
func TestCommitTapOrderPerDN(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE seq (k BIGINT, v BIGINT) DISTRIBUTE BY HASH(k)")

	tap := newRecordingTap(false)
	defer c.AddCommitTap(tap)()

	const n = 50
	key := keyInBucket(0) // every row routes to one bucket => one DN
	for i := 0; i < n; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO seq VALUES (%d, %d)", key, i))
	}
	dn := c.BucketOwners()[0]
	recs := tap.stream(dn)
	if len(recs) != n {
		t.Fatalf("tap saw %d records on dn%d, want %d", len(recs), dn, n)
	}
	for i, rec := range recs {
		if got := rec.Row[1].Int(); got != int64(i) {
			t.Fatalf("record %d out of order: v=%d", i, got)
		}
	}
}
