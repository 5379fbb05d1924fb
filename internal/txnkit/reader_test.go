package txnkit

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// tupleVisible is the row-at-a-time definition the Reader memoizes, kept
// as the reference model: a tuple is visible iff its inserter committed and
// is snapshot-visible (or is self), and its deleter (if any) is not.
func tupleVisible(m *TxnManager, snap *Snapshot, self, xmin, xmax XID) bool {
	settled := func(x XID) bool {
		if x == self && x != 0 {
			return true
		}
		return snap.XIDVisible(x) && m.Status(x) == StatusCommitted
	}
	return settled(xmin) && (xmax == 0 || !settled(xmax))
}

// visible judges one tuple through a fresh Reader.
func visible(m *TxnManager, snap *Snapshot, self, xmin, xmax XID) bool {
	r := m.Reader(snap, self)
	return r.Visible(xmin, xmax)
}

// TestReaderMatchesDefinition drives seeded random histories — local and
// global legs, escalations, prepare / commit / abort, UPGRADE waits and
// DOWNGRADE-merged snapshots, rows written and deleted by the reader itself,
// stamps laid out in runs — and checks that a Reader's verdict on every
// tuple equals tupleVisible's, while transactions keep settling mid-scan.
func TestReaderMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	upgrades, downgrades, checked := 0, 0, 0
	for h := 0; h < 150; h++ {
		m := NewTxnManager()
		var xids []XID
		var nextG GXID = 1
		var open []XID // active or prepared
		settle := func() {
			if len(open) == 0 {
				return
			}
			i := rng.Intn(len(open))
			x := open[i]
			switch rng.Intn(5) {
			case 0:
				_ = m.Abort(x)
			case 1:
				if m.Status(x) == StatusActive && m.GXIDFor(x) != 0 {
					_ = m.Prepare(x)
					return // stays open, now prepared
				}
				_ = m.Commit(x)
			default:
				_ = m.Commit(x)
			}
			open = append(open[:i], open[i+1:]...)
		}
		begin := func() {
			var x XID
			switch rng.Intn(4) {
			case 0:
				x = m.BeginGlobal(nextG)
				nextG++
			case 1:
				x = m.Begin()
				if rng.Intn(2) == 0 { // a single-shard start escalating
					if err := m.RegisterGlobal(x, nextG); err != nil {
						t.Fatal(err)
					}
					nextG++
				}
			default:
				x = m.Begin()
			}
			xids = append(xids, x)
			open = append(open, x)
		}
		step := func() {
			if rng.Intn(3) == 0 {
				settle()
			} else {
				begin()
			}
		}
		for n := 10 + rng.Intn(30); n > 0; n-- {
			step()
		}

		// The snapshot: local, or merged from a random global view.
		var snap Snapshot
		if rng.Intn(3) == 0 {
			snap = m.LocalSnapshot()
		} else {
			gsnap := &GlobalSnapshot{Xmax: 1 + GXID(rng.Intn(int(nextG))), Active: map[GXID]struct{}{}}
			for g := GXID(1); g < gsnap.Xmax; g++ {
				if rng.Intn(4) == 0 {
					gsnap.Active[g] = struct{}{}
				}
			}
			// Every prepared writer the global view calls settled is an
			// UPGRADE wait: settle it from another goroutine.
			var wg sync.WaitGroup
			for _, x := range open {
				if g := m.GXIDFor(x); m.Status(x) == StatusPrepared && gsnap.GXIDVisible(g) {
					upgrades++
					wg.Add(1)
					go func(x XID, commit bool) {
						defer wg.Done()
						time.Sleep(20 * time.Microsecond)
						if commit {
							_ = m.Commit(x)
						} else {
							_ = m.Abort(x)
						}
					}(x, rng.Intn(4) != 0)
				}
			}
			var err error
			snap, err = m.MergeSnapshot(gsnap)
			wg.Wait()
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xids {
				if snap.Contains(x) && m.Status(x) == StatusCommitted {
					downgrades++
				}
			}
			still := open[:0]
			for _, x := range open {
				if st := m.Status(x); st == StatusActive || st == StatusPrepared {
					still = append(still, x)
				}
			}
			open = still
		}

		// The reader: none, or an open transaction with rows of its own.
		var self XID
		if len(open) > 0 && rng.Intn(2) == 0 {
			self = open[rng.Intn(len(open))]
		}
		stamp := func() XID {
			switch k := rng.Intn(10); {
			case k == 0:
				return self
			case k == 1:
				return XID(len(xids) + 1 + rng.Intn(3)) // begun after the snapshot
			default:
				return xids[rng.Intn(len(xids))]
			}
		}

		// Tuples in runs: one inserter per run, deleters in sub-runs.
		type tuple struct{ xmin, xmax XID }
		var tuples []tuple
		for runs := 3 + rng.Intn(12); runs > 0; runs-- {
			ins := stamp()
			var del XID
			for n := 1 + rng.Intn(40); n > 0; n-- {
				if rng.Intn(6) == 0 {
					del = 0
					if rng.Intn(2) == 0 {
						del = stamp()
					}
				}
				tuples = append(tuples, tuple{ins, del})
			}
		}

		// Scan, letting the history move on between rows: a verdict must not
		// depend on when it was first read.
		rd := m.Reader(&snap, self)
		for _, tp := range tuples {
			if rng.Intn(8) == 0 {
				step()
			}
			got := rd.Visible(tp.xmin, tp.xmax)
			if want := tupleVisible(m, &snap, self, tp.xmin, tp.xmax); got != want {
				t.Fatalf("history %d: %v self %d tuple (%d, %d): reader %v, definition %v", h, snap, self, tp.xmin, tp.xmax, got, want)
			}
			checked++
		}
	}
	if upgrades == 0 || downgrades == 0 {
		t.Fatalf("the histories exercised %d UPGRADE waits and %d DOWNGRADEs: want both", upgrades, downgrades)
	}
	t.Logf("%d tuples checked; %d UPGRADE waits, %d downgraded stamps", checked, upgrades, downgrades)
}

// TestReaderReadsClogOncePerStamp pins the memo: a run of rows with one
// inserter and one deleter reads the clog once for each.
func TestReaderReadsClogOncePerStamp(t *testing.T) {
	m := NewTxnManager()
	ins, del := m.Begin(), m.Begin()
	m.Commit(ins)
	m.Commit(del)
	snap := m.LocalSnapshot()
	r := m.Reader(&snap, 0)
	before := m.ClogReads()
	for i := 0; i < 1000; i++ {
		xmax := XID(0)
		if i%2 == 1 {
			xmax = del
		}
		if got := r.Visible(ins, xmax); got != (xmax == 0) {
			t.Fatalf("row %d: visible = %v", i, got)
		}
	}
	if n := m.ClogReads() - before; n != 2 {
		t.Errorf("1000 rows of one inserter and one deleter read the clog %d times, want 2", n)
	}
}
