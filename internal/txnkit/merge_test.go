package txnkit

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// mergeByWalk is Algorithm 1's merge as a walk over the node's whole
// history — every GXID→XID mapping and every LCO entry, whose GXIDs
// globalOf gives — with UPGRADE left out: the oracle MergeSnapshot's
// bounded reads must agree with.
func mergeByWalk(m *TxnManager, gsnap *GlobalSnapshot, globalOf map[XID]GXID) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	merged := m.localSnapshotLocked()
	for g := range gsnap.Active {
		if lx, ok := m.xidMap[g]; ok {
			merged.Active[lx] = struct{}{}
		}
	}
	for g, lx := range m.xidMap {
		if g >= gsnap.Xmax {
			merged.Active[lx] = struct{}{}
		}
	}
	if !m.DisableDowngrade {
		poisoned := false
		for _, e := range m.lco {
			if g := globalOf[e.XID]; !poisoned && g != 0 && !gsnap.GXIDVisible(g) {
				poisoned = true
			}
			if poisoned {
				merged.Active[e.XID] = struct{}{}
			}
		}
	}
	for x := range merged.Active {
		if x < merged.Xmin {
			merged.Xmin = x
		}
	}
	return merged
}

// TestMergeSnapshotMatchesWalk: over random histories — GXIDs registered
// out of order, escalated local transactions, aborts, prepared writers,
// local commits of globally active transactions (a poisoned LCO suffix),
// TruncateLCO — every merged snapshot is the one the full walk builds:
// same Xmin, Xmax and Active. Global snapshots are the GTM's (Xmin the
// least of Active and Xmax), some with Xmin 0, and cover horizons below,
// inside and above the node's history.
func TestMergeSnapshotMatchesWalk(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewTxnManager()
		var (
			nextG    GXID             = 1
			unissued []GXID           // GXIDs the GTM handed out that no leg has registered yet
			globalOf = map[XID]GXID{} // every transaction's GXID
			open     []XID
			ended    = map[GXID]bool{} // GXIDs the GTM has ended
			lagging  []GXID            // committed on the node, still active at the GTM
		)
		snapshots := 0
		for step := 0; step < 400; step++ {
			switch r := rng.Intn(20); {
			case r < 3: // the GTM hands out GXIDs; legs register them in any order
				for k := rng.Intn(3); k >= 0; k-- {
					unissued = append(unissued, nextG)
					nextG++
				}
			case r < 6 && len(unissued) > 0:
				i := rng.Intn(len(unissued))
				g := unissued[i]
				unissued = slices.Delete(unissued, i, i+1)
				x := m.BeginGlobal(g)
				open, globalOf[x] = append(open, x), g
			case r < 8:
				open = append(open, m.Begin())
			case r < 9 && len(open) > 0 && len(unissued) > 0: // escalate a local transaction
				x, g := open[rng.Intn(len(open))], unissued[0]
				if _, ok := globalOf[x]; !ok && m.Status(x) == StatusActive {
					unissued = unissued[1:]
					if err := m.RegisterGlobal(x, g); err != nil {
						t.Fatal(err)
					}
					globalOf[x] = g
				}
			case r < 11 && len(open) > 0:
				x := open[rng.Intn(len(open))]
				if m.Status(x) == StatusActive {
					if err := m.Prepare(x); err != nil {
						t.Fatal(err)
					}
				}
			case r < 15 && len(open) > 0:
				i := rng.Intn(len(open))
				x := open[i]
				open = slices.Delete(open, i, i+1)
				// The GTM usually ends a global writer before its legs
				// commit; a leg committed first leaves it globally active.
				if g := globalOf[x]; g != 0 && rng.Intn(4) != 0 {
					ended[g] = true
				} else if g != 0 {
					lagging = append(lagging, g)
				}
				if rng.Intn(5) == 0 {
					if err := m.Abort(x); err != nil {
						t.Fatal(err)
					}
					ended[globalOf[x]] = true
				} else if err := m.Commit(x); err != nil {
					t.Fatal(err)
				}
			case r < 16 && rng.Intn(4) == 0: // the GTM catches up, and the node trims its LCO
				for _, g := range lagging {
					ended[g] = true
				}
				lagging = lagging[:0]
				m.TruncateLCO(GXID(rng.Int63n(int64(nextG) + 1)))
			default:
				// The horizon anywhere in the history, or near its end.
				xmax := GXID(rng.Int63n(int64(nextG)+3)) + 1
				if rng.Intn(2) == 0 {
					xmax = GXID(max(1, int64(nextG)-rng.Int63n(4)))
				}
				gsnap := &GlobalSnapshot{Xmax: xmax, Active: map[GXID]struct{}{}}
				gsnap.Xmin = gsnap.Xmax
				for g := GXID(1); g < gsnap.Xmax; g++ {
					// A prepared writer still open at the GTM is in Active, so
					// no UPGRADE waits; so are unended and some random GXIDs.
					if !ended[g] || rng.Intn(6) == 0 {
						gsnap.Active[g] = struct{}{}
						gsnap.Xmin = min(gsnap.Xmin, g)
					}
				}
				for x, g := range globalOf {
					if m.Status(x) == StatusPrepared && g < gsnap.Xmax {
						gsnap.Active[g] = struct{}{}
						gsnap.Xmin = min(gsnap.Xmin, g)
					}
				}
				if rng.Intn(4) == 0 {
					gsnap.Xmin = 0
				}
				m.DisableDowngrade = rng.Intn(10) == 0
				want := mergeByWalk(m, gsnap, globalOf)
				got, err := m.MergeSnapshot(gsnap)
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Fatalf("seed %d step %d, global snapshot {xmin=%d xmax=%d active=%d}, LCO %v:\n merged %v\n walk   %v",
						seed, step, gsnap.Xmin, gsnap.Xmax, len(gsnap.Active), m.lco, got, want)
				}
				snapshots++
			}
		}
		if snapshots == 0 {
			t.Fatalf("seed %d took no snapshot", seed)
		}
	}
}

// BenchmarkMergeSnapshot merges a reader's global snapshot on a node that
// has committed n global transactions (each with one single-shard commit
// beside it) while two globals are open, by MergeSnapshot and by the full
// walk (mergeByWalk, without UPGRADE).
func BenchmarkMergeSnapshot(b *testing.B) {
	for _, n := range []int{100, 10_000} {
		m := NewTxnManager()
		for g := GXID(1); g <= GXID(n); g++ {
			_ = m.Commit(m.BeginGlobal(g))
			_ = m.Commit(m.Begin())
		}
		m.BeginGlobal(GXID(n) + 1)
		m.BeginGlobal(GXID(n) + 2)
		gsnap := &GlobalSnapshot{Xmin: GXID(n) + 1, Xmax: GXID(n) + 2, Active: map[GXID]struct{}{GXID(n) + 1: {}}}
		b.Run(fmt.Sprintf("merge/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.MergeSnapshot(gsnap); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("walk/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mergeByWalk(m, gsnap, m.gxidOf)
			}
		})
	}
}
