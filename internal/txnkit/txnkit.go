// Package txnkit implements the transaction-visibility machinery of the
// GTM-lite protocol (paper §II-A): per-data-node XID allocation, MVCC
// snapshots, the commit log (clog), the local commit order (LCO), the
// GXID→local-XID map, and Algorithm 1 (MergeSnapshot) with its UPGRADE and
// DOWNGRADE conflict-resolution procedures.
//
// One TxnManager lives on every data node. Single-shard transactions use
// purely local XIDs and local snapshots; multi-shard transactions carry a
// GXID assigned by the GTM and register it here so that readers can merge
// the global and local views of visibility.
package txnkit

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// XID is a data-node-local transaction identifier. XID 0 is invalid.
type XID uint64

// GXID is a global transaction identifier assigned by the GTM to
// multi-shard transactions. GXID 0 means "single-shard, no global identity".
type GXID uint64

// Status is the lifecycle state of a transaction on one data node.
type Status uint8

// Transaction states. A multi-shard transaction passes through
// StatusPrepared between the two phases of 2PC; single-shard transactions
// jump straight from Active to Committed/Aborted.
const (
	StatusUnknown Status = iota
	StatusActive
	StatusPrepared
	StatusCommitted
	StatusAborted
)

func (s Status) String() string {
	switch s {
	case StatusActive:
		return "active"
	case StatusPrepared:
		return "prepared"
	case StatusCommitted:
		return "committed"
	case StatusAborted:
		return "aborted"
	default:
		return "unknown"
	}
}

// ErrUpgradeTimeout is returned by MergeSnapshot when an UPGRADE wait for a
// prepared writer's commit confirmation exceeds the configured timeout —
// in a healthy cluster the window between PREPARE and COMMIT is slim
// (paper §II-A2), so hitting this indicates a stuck coordinator.
var ErrUpgradeTimeout = errors.New("txnkit: timed out waiting for prepared transaction to commit (UPGRADE)")

// Snapshot is an MVCC snapshot in local-XID space.
//
// Visibility rule (PostgreSQL-style): a transaction x is visible to the
// snapshot iff x < Xmax, x is not in Active, and x committed. Xmin is the
// oldest XID that was active when the snapshot was taken (everything below
// is settled) and is used for garbage collection, not visibility.
type Snapshot struct {
	Xmin   XID
	Xmax   XID // one past the highest XID assigned when taken
	Active map[XID]struct{}
}

// Contains reports whether x is in the snapshot's active set.
func (s *Snapshot) Contains(x XID) bool {
	_, ok := s.Active[x]
	return ok
}

// XIDVisible reports whether transaction x is visible under the snapshot,
// ignoring commit status (a Reader combines it with the clog).
func (s *Snapshot) XIDVisible(x XID) bool {
	if x >= s.Xmax {
		return false
	}
	return !s.Contains(x)
}

// Clone deep-copies the snapshot.
func (s *Snapshot) Clone() Snapshot {
	c := Snapshot{Xmin: s.Xmin, Xmax: s.Xmax, Active: make(map[XID]struct{}, len(s.Active))}
	for x := range s.Active {
		c.Active[x] = struct{}{}
	}
	return c
}

// SortedActive returns the active set in ascending order (for display and
// deterministic tests).
func (s *Snapshot) SortedActive() []XID {
	out := make([]XID, 0, len(s.Active))
	for x := range s.Active {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (s Snapshot) String() string {
	return fmt.Sprintf("snap{xmin=%d xmax=%d active=%v}", s.Xmin, s.Xmax, s.SortedActive())
}

// GlobalSnapshot is an MVCC snapshot in GXID space, produced by the GTM for
// multi-shard transactions.
type GlobalSnapshot struct {
	Xmin   GXID
	Xmax   GXID
	Active map[GXID]struct{}
}

// Contains reports whether g is in the global active set.
func (s *GlobalSnapshot) Contains(g GXID) bool {
	_, ok := s.Active[g]
	return ok
}

// GXIDVisible reports whether global transaction g is visible (committed or
// aborted — settled) under the global snapshot.
func (s *GlobalSnapshot) GXIDVisible(g GXID) bool {
	if g >= s.Xmax {
		return false
	}
	return !s.Contains(g)
}

// lcoEntry records one local commit in commit order; its GXID is
// gxidOf[XID] (none for a single-shard transaction), which a commit
// settles. upTo is the highest GXID of this entry and every earlier one:
// monotone along the LCO, so a binary search finds the first entry that
// reaches a GXID.
type lcoEntry struct {
	XID  XID
	upTo GXID
}

// TxnManager is the per-data-node transaction manager.
type TxnManager struct {
	mu         sync.Mutex
	nextXID    XID
	status     map[XID]Status
	active     map[XID]struct{}
	gxidOf     map[XID]GXID
	xidMap     map[GXID]XID // the paper's xidMap input to Algorithm 1
	gxids      []GXID       // xidMap's keys, ascending
	lco        []lcoEntry   // the paper's LCO input to Algorithm 1
	commitDone map[XID]chan struct{}
	clogReads  uint64 // Reader verdicts that read status

	// UpgradeTimeout bounds how long MergeSnapshot waits for a prepared
	// writer (UPGRADE). Zero means DefaultUpgradeTimeout.
	UpgradeTimeout time.Duration

	// DisableDowngrade and DisableUpgrade switch off the respective half of
	// Algorithm 1's conflict resolution. They exist only for E7's anomaly
	// reproductions (TestAnomaly1WithoutUpgradeShowsStaleRead,
	// TestAnomaly2WithoutDowngradeIsVisible show each anomaly with its half
	// off); no experiment or benchmark sets them.
	// They must stay false in production use.
	DisableDowngrade bool
	DisableUpgrade   bool
}

// DefaultUpgradeTimeout bounds UPGRADE waits when TxnManager.UpgradeTimeout
// is unset.
const DefaultUpgradeTimeout = 5 * time.Second

// NewTxnManager returns an empty manager whose first allocated XID is 1.
func NewTxnManager() *TxnManager {
	return &TxnManager{
		nextXID:    1,
		status:     make(map[XID]Status),
		active:     make(map[XID]struct{}),
		gxidOf:     make(map[XID]GXID),
		xidMap:     make(map[GXID]XID),
		commitDone: make(map[XID]chan struct{}),
	}
}

// Begin starts a single-shard (purely local) transaction.
func (m *TxnManager) Begin() XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.beginLocked(0)
}

// BeginGlobal starts the local leg of a multi-shard transaction identified
// by g, recording the GXID↔XID mapping used by MergeSnapshot.
func (m *TxnManager) BeginGlobal(g GXID) XID {
	if g == 0 {
		panic("txnkit: BeginGlobal requires a non-zero GXID")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.beginLocked(g)
}

func (m *TxnManager) beginLocked(g GXID) XID {
	x := m.nextXID
	m.nextXID++
	m.status[x] = StatusActive
	m.active[x] = struct{}{}
	m.commitDone[x] = make(chan struct{})
	if g != 0 {
		m.mapGlobalLocked(x, g)
	}
	return x
}

// mapGlobalLocked binds local transaction x to g, keeping gxids sorted.
// GXIDs come from one GTM counter, so a new one nearly always goes last.
func (m *TxnManager) mapGlobalLocked(x XID, g GXID) {
	m.gxidOf[x] = g
	if _, ok := m.xidMap[g]; !ok {
		i := len(m.gxids)
		for i > 0 && m.gxids[i-1] > g {
			i--
		}
		m.gxids = slices.Insert(m.gxids, i, g)
	}
	m.xidMap[g] = x
}

// RegisterGlobal maps an already-running local transaction to a GXID.
// GTM-lite uses this when a transaction that began single-shard touches a
// second shard and must escalate to a global transaction (paper §II-A2).
func (m *TxnManager) RegisterGlobal(x XID, g GXID) error {
	if g == 0 {
		return fmt.Errorf("txnkit: RegisterGlobal requires a non-zero GXID")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.status[x]
	if st != StatusActive && st != StatusPrepared {
		return fmt.Errorf("txnkit: RegisterGlobal on %s transaction %d", st, x)
	}
	if existing, ok := m.gxidOf[x]; ok && existing != g {
		return fmt.Errorf("txnkit: transaction %d already bound to GXID %d", x, existing)
	}
	m.mapGlobalLocked(x, g)
	return nil
}

// Prepare moves x to the prepared state (phase one of 2PC). Only valid for
// active transactions.
func (m *TxnManager) Prepare(x XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.status[x] != StatusActive {
		return fmt.Errorf("txnkit: prepare of %s transaction %d", m.status[x], x)
	}
	m.status[x] = StatusPrepared
	return nil
}

// Commit marks x committed, appends it to the local commit order and wakes
// any UPGRADE waiters.
func (m *TxnManager) Commit(x XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.status[x]
	if st != StatusActive && st != StatusPrepared {
		return fmt.Errorf("txnkit: commit of %s transaction %d", st, x)
	}
	m.status[x] = StatusCommitted
	delete(m.active, x)
	upTo := m.gxidOf[x]
	if n := len(m.lco); n > 0 {
		upTo = max(upTo, m.lco[n-1].upTo)
	}
	m.lco = append(m.lco, lcoEntry{XID: x, upTo: upTo})
	if ch, ok := m.commitDone[x]; ok {
		close(ch)
		delete(m.commitDone, x)
	}
	return nil
}

// Abort marks x aborted and wakes any UPGRADE waiters (they will re-check
// status and treat the writer as invisible).
func (m *TxnManager) Abort(x XID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.status[x]
	if st != StatusActive && st != StatusPrepared {
		return fmt.Errorf("txnkit: abort of %s transaction %d", st, x)
	}
	m.status[x] = StatusAborted
	delete(m.active, x)
	delete(m.gxidOf, x)
	if ch, ok := m.commitDone[x]; ok {
		close(ch)
		delete(m.commitDone, x)
	}
	return nil
}

// Status returns the lifecycle state of x.
func (m *TxnManager) Status(x XID) Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.status[x]
}

// GXIDFor returns the GXID registered for local transaction x (0 if the
// transaction is single-shard).
func (m *TxnManager) GXIDFor(x XID) GXID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gxidOf[x]
}

// LocalXIDFor returns the local XID registered for g, or 0.
func (m *TxnManager) LocalXIDFor(g GXID) XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.xidMap[g]
}

// LocalSnapshot takes a snapshot of the node's current local state. This is
// the only snapshot single-shard transactions ever need (the GTM-lite fast
// path).
func (m *TxnManager) LocalSnapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.localSnapshotLocked()
}

func (m *TxnManager) localSnapshotLocked() Snapshot {
	snap := Snapshot{Xmax: m.nextXID, Active: make(map[XID]struct{}, len(m.active))}
	xmin := m.nextXID
	for x := range m.active {
		snap.Active[x] = struct{}{}
		if x < xmin {
			xmin = x
		}
	}
	// Prepared transactions are not in m.active? They are: we only delete
	// from active on commit/abort, so prepared txns stay active — correct,
	// a prepared-but-uncommitted writer must be invisible.
	snap.Xmin = xmin
	return snap
}

// Reader decides MVCC visibility for one scan: a tuple stamped (xmin, xmax)
// is visible iff its inserter is, and its deleter (if any) is not, where a
// stamp x is visible iff x is the reading transaction self, or the snapshot
// admits x and the clog says x committed. Downgraded transactions appear in
// snap.Active even though the clog says committed, which is exactly how
// DOWNGRADE hides them.
//
// A Reader remembers the verdict for the last insert stamp and the last
// delete stamp it was asked about, and reads the clog only when one
// changes — rows written by one transaction lie in runs, so a scan reads
// it about once per writer, not once per row. A verdict is final for the
// life of the snapshot:
//
//   - a snapshot admits x only if x < Xmax and x is not in Active; such a
//     transaction had already committed or aborted when the snapshot was
//     taken, and that status never changes;
//   - a stamp the snapshot rejects stays rejected;
//   - self is always visible.
//
// This holds for DOWNGRADE-merged snapshots too, since MergeSnapshot builds
// their Active set once. It needs the snapshot to have been taken on the
// manager that reads it: every Snapshot outside tests comes from
// LocalSnapshot, MergeSnapshot or Clone, each called on the manager that
// later judges it.
//
// A Reader is a stack value made for one loop and never shared between
// goroutines; the zero stamp needs no entry of its own, since no
// transaction has XID 0 and the zero verdict (invisible) is its verdict.
type Reader struct {
	m        *TxnManager
	snap     *Snapshot
	self     XID
	ins, del verdict
}

// verdict is a Reader's memory of one stamp.
type verdict struct {
	x       XID
	visible bool
}

// Reader returns a visibility reader for the transaction self (0: none)
// reading under snap, which must stay unmodified while the reader is used.
func (m *TxnManager) Reader(snap *Snapshot, self XID) Reader {
	return Reader{m: m, snap: snap, self: self}
}

// Visible reports whether the tuple stamped (xmin, xmax) is visible.
func (r *Reader) Visible(xmin, xmax XID) bool {
	if xmin != r.ins.x {
		r.ins = verdict{xmin, r.settled(xmin)}
	}
	if !r.ins.visible {
		return false
	}
	if xmax == 0 {
		return true
	}
	if xmax != r.del.x {
		r.del = verdict{xmax, r.settled(xmax)}
	}
	return !r.del.visible
}

// settled is the Reader's miss path: whether x's effects are visible to it.
func (r *Reader) settled(x XID) bool {
	if x == r.self && x != 0 {
		return true
	}
	if !r.snap.XIDVisible(x) {
		return false
	}
	m := r.m
	m.mu.Lock()
	st := m.status[x]
	m.clogReads++
	m.mu.Unlock()
	return st == StatusCommitted
}

// ClogReads reports how many times Readers have read the clog for a
// verdict since the manager was created.
func (m *TxnManager) ClogReads() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clogReads
}

// MergeSnapshot implements Algorithm 1 of the paper. Given the reader's
// global snapshot it merges the node-local snapshot into a single local-XID
// snapshot usable for visibility checking, resolving the two anomalies:
//
//   - UPGRADE (Anomaly 1): a writer the global snapshot says committed is
//     still prepared locally → wait for its local commit confirmation so
//     the reader sees all of its writes.
//   - DOWNGRADE (Anomaly 2): a writer the global snapshot says active has
//     already committed locally → make it (and every later local commit,
//     which may depend on its writes) appear active in the merged snapshot.
//
// The method takes the local snapshot itself at the appropriate time (after
// UPGRADE waits complete) so callers only supply the global snapshot.
//
// The merge reads only what the global snapshot can hide: the GXIDs at or
// above its Xmax (gxids is sorted), and the LCO from its first entry whose
// GXID can be invisible — every GXID below both Xmax and each member of
// Active is visible, and lcoEntry.upTo finds the first entry at or above
// that bound. Nothing before it can poison.
func (m *TxnManager) MergeSnapshot(gsnap *GlobalSnapshot) (Snapshot, error) {
	// Step 6 (upgradeTX) first: wait for locally-prepared transactions that
	// the global snapshot already considers committed. Waiting must happen
	// before we take the local snapshot, otherwise the post-wait commit
	// would be above our local Xmax and remain invisible.
	if !m.DisableUpgrade {
		if err := m.upgradeTX(gsnap); err != nil {
			return Snapshot{}, err
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()

	merged := m.localSnapshotLocked() // steps 3–4: local active set
	// Step 1–2: map global active transactions into local XIDs. Every GXID
	// below lo is visible to the global snapshot.
	lo := min(gsnap.Xmin, gsnap.Xmax)
	for g := range gsnap.Active {
		lo = min(lo, g)
		if lx, ok := m.xidMap[g]; ok {
			merged.Active[lx] = struct{}{}
		}
	}
	// Global transactions above the global horizon are also invisible.
	above, _ := slices.BinarySearch(m.gxids, gsnap.Xmax)
	for _, g := range m.gxids[above:] {
		merged.Active[m.xidMap[g]] = struct{}{}
	}

	// Step 5 (downgradeTX): traverse the LCO. The first locally-committed
	// multi-shard transaction that is invisible in the global snapshot
	// poisons every later local commit: subsequent writers may have read or
	// overwritten its data (the T1→T3 dependency of Anomaly 2), so they are
	// all re-marked active in the merged snapshot.
	if !m.DisableDowngrade {
		from := sort.Search(len(m.lco), func(i int) bool { return m.lco[i].upTo >= lo })
		poisoned := false
		for _, e := range m.lco[from:] {
			if !poisoned {
				g := m.gxidOf[e.XID]
				poisoned = g != 0 && !gsnap.GXIDVisible(g)
			}
			if poisoned {
				merged.Active[e.XID] = struct{}{}
			}
		}
	}

	// Step 7: adjust Xmin.
	for x := range merged.Active {
		if x < merged.Xmin {
			merged.Xmin = x
		}
	}
	return merged, nil
}

// upgradeTX waits for every locally-prepared transaction whose GXID the
// global snapshot considers committed.
func (m *TxnManager) upgradeTX(gsnap *GlobalSnapshot) error {
	timeout := m.UpgradeTimeout
	if timeout == 0 {
		timeout = DefaultUpgradeTimeout
	}
	// One timer bounds the waits for all the writers, made at the first wait
	// and stopped on return: an unstopped one would outlive a wait that ends
	// in microseconds by up to timeout.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for {
		m.mu.Lock()
		var waitCh chan struct{}
		for x := range m.active {
			if m.status[x] != StatusPrepared {
				continue
			}
			g := m.gxidOf[x]
			if g == 0 || !gsnap.GXIDVisible(g) {
				continue
			}
			// Writer is globally committed but locally still prepared —
			// Anomaly 1. Wait for its commit confirmation.
			waitCh = m.commitDone[x]
			break
		}
		m.mu.Unlock()
		if waitCh == nil {
			return nil
		}
		if timer == nil {
			timer = time.NewTimer(timeout)
		}
		select {
		case <-waitCh:
			// Re-scan: there may be more prepared writers.
		case <-timer.C:
			return ErrUpgradeTimeout
		}
	}
}

// PreparedGlobals lists the currently prepared transactions that carry a
// GXID, keyed by GXID — the in-doubt set a recovery pass must resolve
// against the GTM's outcome log after a coordinator failure.
func (m *TxnManager) PreparedGlobals() map[GXID]XID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[GXID]XID)
	for x := range m.active {
		if m.status[x] == StatusPrepared {
			if g := m.gxidOf[x]; g != 0 {
				out[g] = x
			}
		}
	}
	return out
}

// TruncateLCO drops LCO entries for transactions whose GXID is below the
// global horizon g (every snapshot that could still be taken will see them
// as committed, so they can never trigger a downgrade). Single-shard
// entries older than the oldest retained multi-shard entry are dropped
// with them.
func (m *TxnManager) TruncateLCO(globalXmin GXID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	keepFrom := len(m.lco)
	for i, e := range m.lco {
		if g := m.gxidOf[e.XID]; g != 0 && g >= globalXmin {
			keepFrom = i
			break
		}
	}
	if keepFrom > 0 {
		m.lco = append([]lcoEntry(nil), m.lco[keepFrom:]...)
		for i := range m.lco {
			m.lco[i].upTo = m.gxidOf[m.lco[i].XID]
			if i > 0 {
				m.lco[i].upTo = max(m.lco[i].upTo, m.lco[i-1].upTo)
			}
		}
	}
}

// LCOLen reports the current length of the local commit order (for tests
// and monitoring).
func (m *TxnManager) LCOLen() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.lco)
}

// ActiveCount reports how many transactions are currently active or
// prepared on this node.
func (m *TxnManager) ActiveCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.active)
}
