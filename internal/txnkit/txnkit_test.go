package txnkit

import (
	"testing"
	"testing/quick"
	"time"
)

func TestBeginCommitLifecycle(t *testing.T) {
	m := NewTxnManager()
	x := m.Begin()
	if x != 1 {
		t.Fatalf("first xid = %d", x)
	}
	if m.Status(x) != StatusActive {
		t.Fatal("should be active")
	}
	if err := m.Commit(x); err != nil {
		t.Fatal(err)
	}
	if m.Status(x) != StatusCommitted {
		t.Fatal("should be committed")
	}
	if err := m.Commit(x); err == nil {
		t.Fatal("double commit must fail")
	}
	y := m.Begin()
	if err := m.Abort(y); err != nil {
		t.Fatal(err)
	}
	if m.Status(y) != StatusAborted {
		t.Fatal("should be aborted")
	}
	if err := m.Prepare(y); err == nil {
		t.Fatal("prepare of aborted txn must fail")
	}
}

func TestPreparedStaysInvisible(t *testing.T) {
	m := NewTxnManager()
	w := m.Begin()
	if err := m.Prepare(w); err != nil {
		t.Fatal(err)
	}
	snap := m.LocalSnapshot()
	if !snap.Contains(w) {
		t.Error("prepared txn must be in the active set")
	}
	if visible(m, &snap, 0, w, 0) {
		t.Error("tuple written by a prepared txn must be invisible")
	}
	if err := m.Commit(w); err != nil {
		t.Fatal(err)
	}
	snap2 := m.LocalSnapshot()
	if !visible(m, &snap2, 0, w, 0) {
		t.Error("tuple must be visible after commit")
	}
}

func TestSnapshotIsolatesConcurrentWriter(t *testing.T) {
	m := NewTxnManager()
	w := m.Begin()
	reader := m.Begin()
	snap := m.LocalSnapshot() // taken while w active
	if err := m.Commit(w); err != nil {
		t.Fatal(err)
	}
	// Even though w is now committed, the old snapshot must not see it.
	if visible(m, &snap, reader, w, 0) {
		t.Error("snapshot must hide txn that was active when taken")
	}
	// A fresh snapshot sees it.
	fresh := m.LocalSnapshot()
	if !visible(m, &fresh, reader, w, 0) {
		t.Error("fresh snapshot must see committed txn")
	}
}

func TestOwnWritesVisible(t *testing.T) {
	m := NewTxnManager()
	x := m.Begin()
	snap := m.LocalSnapshot()
	if !visible(m, &snap, x, x, 0) {
		t.Error("a transaction must see its own insert")
	}
	if visible(m, &snap, x, x, x) {
		t.Error("a transaction must not see a tuple it deleted itself")
	}
}

func TestDeletedTupleVisibility(t *testing.T) {
	m := NewTxnManager()
	ins := m.Begin()
	m.Commit(ins)
	del := m.Begin()
	snapBefore := m.LocalSnapshot() // del active
	m.Commit(del)
	snapAfter := m.LocalSnapshot()

	// Tuple inserted by ins, deleted by del.
	if !visible(m, &snapBefore, 0, ins, del) {
		t.Error("delete not yet visible: tuple should still be visible")
	}
	if visible(m, &snapAfter, 0, ins, del) {
		t.Error("after commit of deleter the tuple must be gone")
	}
}

func TestAbortedWriterInvisible(t *testing.T) {
	m := NewTxnManager()
	w := m.Begin()
	m.Abort(w)
	snap := m.LocalSnapshot()
	if visible(m, &snap, 0, w, 0) {
		t.Error("aborted writer's tuple must be invisible")
	}
	// A tuple whose deleter aborted is still visible.
	ins := m.Begin()
	m.Commit(ins)
	del := m.Begin()
	m.Abort(del)
	snap = m.LocalSnapshot()
	if !visible(m, &snap, 0, ins, del) {
		t.Error("aborted delete must not hide the tuple")
	}
}

func TestGlobalRegistration(t *testing.T) {
	m := NewTxnManager()
	lx := m.BeginGlobal(100)
	if m.GXIDFor(lx) != 100 || m.LocalXIDFor(100) != lx {
		t.Error("gxid mapping broken")
	}
	if m.GXIDFor(m.Begin()) != 0 {
		t.Error("single-shard txn must have no gxid")
	}
}

// TestAnomaly1Upgrade reproduces the paper's Anomaly 1: the global snapshot
// says the writer committed, but the local commit confirmation has not yet
// arrived (the writer is prepared). MergeSnapshot must wait (UPGRADE) so
// the reader sees the writer's data.
func TestAnomaly1Upgrade(t *testing.T) {
	m := NewTxnManager()
	const g GXID = 7
	w := m.BeginGlobal(g)
	if err := m.Prepare(w); err != nil {
		t.Fatal(err)
	}

	// Global snapshot taken AFTER the writer committed on the GTM: g is
	// settled (not active, below xmax).
	gsnap := &GlobalSnapshot{Xmin: g + 1, Xmax: g + 1, Active: map[GXID]struct{}{}}

	// Deliver the local commit confirmation shortly after the reader
	// starts merging.
	go func() {
		time.Sleep(20 * time.Millisecond)
		m.Commit(w)
	}()

	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}
	if !visible(m, &merged, 0, w, 0) {
		t.Error("after UPGRADE the globally-committed writer's tuple must be visible")
	}
}

func TestAnomaly1WithoutUpgradeShowsStaleRead(t *testing.T) {
	m := NewTxnManager()
	m.DisableUpgrade = true
	const g GXID = 7
	w := m.BeginGlobal(g)
	m.Prepare(w)
	gsnap := &GlobalSnapshot{Xmin: g + 1, Xmax: g + 1, Active: map[GXID]struct{}{}}
	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}
	// The anomaly: global view says committed, but the reader misses the
	// write because locally it is still prepared.
	if visible(m, &merged, 0, w, 0) {
		t.Error("with UPGRADE disabled the anomaly should be observable (tuple invisible)")
	}
	m.Commit(w)
}

func TestUpgradeTimeout(t *testing.T) {
	m := NewTxnManager()
	m.UpgradeTimeout = 30 * time.Millisecond
	const g GXID = 9
	w := m.BeginGlobal(g)
	m.Prepare(w)
	gsnap := &GlobalSnapshot{Xmin: g + 1, Xmax: g + 1, Active: map[GXID]struct{}{}}
	_, err := m.MergeSnapshot(gsnap)
	if err != ErrUpgradeTimeout {
		t.Fatalf("err = %v, want ErrUpgradeTimeout", err)
	}
	m.Commit(w)
}

// TestAnomaly2Downgrade reproduces the paper's Anomaly 2 (Fig 2): T1 is a
// multi-shard writer that committed locally but is still active in the
// reader's (older) global snapshot; T3 is a later single-shard writer that
// depends on T1. Without DOWNGRADE the reader sees T3's update but not
// T1's — the anomaly. With DOWNGRADE both are hidden.
func TestAnomaly2Downgrade(t *testing.T) {
	m := NewTxnManager()
	const gT1 GXID = 5

	// Reader's global snapshot is old: T1 still active globally.
	gsnap := &GlobalSnapshot{Xmin: gT1, Xmax: gT1 + 1, Active: map[GXID]struct{}{gT1: {}}}

	// T1: multi-shard write on this DN. tuple1 deleted by T1, tuple2
	// inserted by T1.
	t1 := m.BeginGlobal(gT1)
	m.Prepare(t1)
	m.Commit(t1) // locally committed before the reader merges

	// T3: subsequent single-shard write, updates tuple2 -> tuple3.
	t3 := m.Begin()
	m.Commit(t3)

	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}

	// Paper's tuple table: tuple1{xmin=0,xmax=T1}, tuple2{xmin=T1,xmax=T3},
	// tuple3{xmin=T3}. Use xid 0 substitute: give tuple1 a committed base
	// inserter.
	base := XID(0)
	_ = base
	// Simulate a pre-existing inserter: create one committed txn first in a
	// fresh manager is cleaner; here tuple1's xmin predates T1, so use an
	// extra committed txn.
	if visible(m, &merged, 0, t1, 0) {
		t.Error("T1's insert (tuple2 lineage) must be invisible after DOWNGRADE")
	}
	if visible(m, &merged, 0, t3, 0) {
		t.Error("T3's insert (tuple3) must be invisible after DOWNGRADE — it depends on T1")
	}
}

func TestAnomaly2WithoutDowngradeIsVisible(t *testing.T) {
	m := NewTxnManager()
	m.DisableDowngrade = true
	const gT1 GXID = 5
	gsnap := &GlobalSnapshot{Xmin: gT1, Xmax: gT1 + 1, Active: map[GXID]struct{}{gT1: {}}}

	older := m.Begin() // pre-existing data writer
	m.Commit(older)

	t1 := m.BeginGlobal(gT1)
	m.Prepare(t1)
	m.Commit(t1)
	t3 := m.Begin()
	m.Commit(t3)

	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}
	// The anomaly exactly as Fig 2 describes: tuple1 (deleted by T1) is
	// visible because T1 is globally active, AND tuple3 (inserted by T3)
	// is visible because T3 committed locally — the reader sees T3's
	// update but not T1's.
	tuple1Visible := visible(m, &merged, 0, older, t1)
	tuple3Visible := visible(m, &merged, 0, t3, 0)
	if !tuple1Visible || !tuple3Visible {
		t.Errorf("expected the anomaly (tuple1=%v tuple3=%v should both be visible)", tuple1Visible, tuple3Visible)
	}
}

func TestDowngradePoisonsOnlySuffix(t *testing.T) {
	m := NewTxnManager()
	// A single-shard txn that commits BEFORE the poisoned multi-shard txn
	// stays visible.
	early := m.Begin()
	m.Commit(early)

	const g GXID = 11
	t1 := m.BeginGlobal(g)
	m.Prepare(t1)
	m.Commit(t1)

	gsnap := &GlobalSnapshot{Xmin: g, Xmax: g + 1, Active: map[GXID]struct{}{g: {}}}
	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}
	if !visible(m, &merged, 0, early, 0) {
		t.Error("commits before the poisoned txn must remain visible")
	}
	if visible(m, &merged, 0, t1, 0) {
		t.Error("the poisoned txn itself must be invisible")
	}
}

func TestMergeMapsGlobalActiveToLocal(t *testing.T) {
	m := NewTxnManager()
	const g GXID = 3
	lx := m.BeginGlobal(g)
	// Writer still active everywhere.
	gsnap := &GlobalSnapshot{Xmin: g, Xmax: g + 1, Active: map[GXID]struct{}{g: {}}}
	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Contains(lx) {
		t.Error("global-active txn must map to local active in merged snapshot")
	}
}

func TestMergeHidesFutureGlobalTxns(t *testing.T) {
	m := NewTxnManager()
	// A multi-shard txn with GXID above the reader's global xmax must be
	// invisible even if locally committed.
	const g GXID = 50
	lx := m.BeginGlobal(g)
	m.Prepare(lx)
	m.Commit(lx)
	gsnap := &GlobalSnapshot{Xmin: 10, Xmax: 20, Active: map[GXID]struct{}{}}
	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}
	if visible(m, &merged, 0, lx, 0) {
		t.Error("txn above global xmax must be invisible")
	}
}

func TestTruncateLCO(t *testing.T) {
	m := NewTxnManager()
	for i := 0; i < 5; i++ {
		x := m.BeginGlobal(GXID(i + 1))
		m.Prepare(x)
		m.Commit(x)
	}
	if m.LCOLen() != 5 {
		t.Fatalf("lco len = %d", m.LCOLen())
	}
	m.TruncateLCO(4) // gxids 1..3 settled everywhere
	if m.LCOLen() != 2 {
		t.Errorf("lco len after truncate = %d, want 2", m.LCOLen())
	}
	// Truncation must not break downgrade for retained entries.
	gsnap := &GlobalSnapshot{Xmin: 4, Xmax: 5, Active: map[GXID]struct{}{4: {}}}
	merged, err := m.MergeSnapshot(gsnap)
	if err != nil {
		t.Fatal(err)
	}
	lx := m.LocalXIDFor(5)
	if visible(m, &merged, 0, lx, 0) {
		t.Error("retained poisoned entry must still downgrade")
	}
}

func TestSnapshotCloneIndependence(t *testing.T) {
	m := NewTxnManager()
	m.Begin()
	s := m.LocalSnapshot()
	c := s.Clone()
	c.Active[999] = struct{}{}
	if s.Contains(999) {
		t.Error("clone must not alias the active set")
	}
}

func TestLocalSnapshotPropertyMonotoneXmax(t *testing.T) {
	m := NewTxnManager()
	prev := XID(0)
	f := func(commit bool) bool {
		x := m.Begin()
		if commit {
			m.Commit(x)
		}
		s := m.LocalSnapshot()
		ok := s.Xmax > prev && s.Xmin <= s.Xmax
		prev = s.Xmax
		// Every active txn is below xmax.
		for a := range s.Active {
			if a >= s.Xmax {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentBeginCommit(t *testing.T) {
	m := NewTxnManager()
	const workers = 8
	const perWorker = 200
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < perWorker; i++ {
				x := m.Begin()
				if i%3 == 0 {
					m.Abort(x)
				} else {
					m.Commit(x)
				}
				_ = m.LocalSnapshot()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if got := m.ActiveCount(); got != 0 {
		t.Errorf("active count = %d, want 0", got)
	}
	s := m.LocalSnapshot()
	if s.Xmax != XID(workers*perWorker+1) {
		t.Errorf("xmax = %d, want %d", s.Xmax, workers*perWorker+1)
	}
}

func TestGlobalSnapshotVisibility(t *testing.T) {
	s := &GlobalSnapshot{Xmin: 2, Xmax: 10, Active: map[GXID]struct{}{5: {}}}
	if !s.GXIDVisible(3) {
		t.Error("settled gxid below xmax must be visible")
	}
	if s.GXIDVisible(5) {
		t.Error("active gxid must be invisible")
	}
	if s.GXIDVisible(10) || s.GXIDVisible(11) {
		t.Error("gxid at/above xmax must be invisible")
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Xmin: 1, Xmax: 5, Active: map[XID]struct{}{3: {}, 2: {}}}
	if got := s.String(); got != "snap{xmin=1 xmax=5 active=[2 3]}" {
		t.Errorf("String() = %q", got)
	}
}
