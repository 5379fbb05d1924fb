package experiments

import (
	"io"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dsync"
)

// TestNetworkGTMLiteFewerGTMMessages is E15's acceptance check: GTM-lite
// must cost strictly fewer GTM round-trip messages per committed
// transaction than the all-through-GTM baseline at both the 100 % and the
// 90 % single-shard mix.
func TestNetworkGTMLiteFewerGTMMessages(t *testing.T) {
	cells, err := Network(io.Discard, 200)
	if err != nil {
		t.Fatal(err)
	}
	byMode := func(mode cluster.TxnMode, ss float64) *NetworkCell {
		for i := range cells {
			if cells[i].Mode == mode && cells[i].SingleShard == ss {
				return &cells[i]
			}
		}
		t.Fatalf("no E15 cell for %s ss=%.2f", mode, ss)
		return nil
	}
	for _, ss := range []float64{1.0, 0.9} {
		base := byMode(cluster.ModeBaseline, ss)
		lite := byMode(cluster.ModeGTMLite, ss)
		if base.GTMPerTxn <= 0 {
			t.Fatalf("ss=%.0f%%: baseline recorded no GTM messages (%.3f/txn)", ss*100, base.GTMPerTxn)
		}
		if lite.GTMPerTxn >= base.GTMPerTxn {
			t.Fatalf("ss=%.0f%%: gtm-lite %.3f GTM msgs/txn, not strictly fewer than baseline %.3f",
				ss*100, lite.GTMPerTxn, base.GTMPerTxn)
		}
		if lite.TotalPerTxn >= base.TotalPerTxn {
			t.Errorf("ss=%.0f%%: gtm-lite total %.3f msgs/txn >= baseline %.3f",
				ss*100, lite.TotalPerTxn, base.TotalPerTxn)
		}
	}
	// The 100 % single-shard GTM-lite workload must skip the GTM entirely.
	if g := byMode(cluster.ModeGTMLite, 1.0).GTMPerTxn; g != 0 {
		t.Errorf("pure single-shard gtm-lite still sent %.3f GTM msgs/txn", g)
	}
}

// TestFrontDoorShedsLowProtectsHigh is E17's acceptance check at smoke
// scale: the run itself fails unless every high-priority statement was
// served within the bound while overload shed low-priority ones.
func TestFrontDoorShedsLowProtectsHigh(t *testing.T) {
	if testing.Short() {
		t.Skip("drives hundreds of concurrent sessions")
	}
	if err := FrontDoor(io.Discard, 200); err != nil {
		t.Fatal(err)
	}
}

// TestNDPExperiment is E18's acceptance check: the run itself fails unless
// every pushdown level, parallel degree and join placement returns the
// same rows, full pushdown cuts scan_frag bytes >= 10x, and the bloom
// semi-join ships strictly fewer bytes than the pull-up join.
func TestNDPExperiment(t *testing.T) {
	if err := NDP(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestEdgeSyncShape is E10's acceptance check: every topology converges,
// the mesh over direct radio takes about a tenth of the via-cloud time
// (the paper's "at least 10X faster" link), and the leader star, a star
// like via-cloud, moves exactly via-cloud's bytes — its own run's traffic,
// not the mesh's too.
func TestEdgeSyncShape(t *testing.T) {
	devices, keys := 6, 20
	if testing.Short() {
		devices, keys = 4, 5
	}
	mesh, cloud, leader := EdgeSync(io.Discard, devices, keys)
	for name, r := range map[string]dsync.ConvergeResult{"mesh": mesh, "via-cloud": cloud, "leader": leader} {
		if !r.Converged || r.Failed != 0 {
			t.Fatalf("%s: %+v", name, r)
		}
	}
	if ratio := float64(cloud.SimTime) / float64(mesh.SimTime); ratio < 9 || ratio > 11 {
		t.Errorf("via-cloud %v / mesh %v = %.1f, want about 10", cloud.SimTime, mesh.SimTime, ratio)
	}
	if leader.Bytes != cloud.Bytes {
		t.Errorf("leader star moved %d bytes, via-cloud %d: same star, same traffic", leader.Bytes, cloud.Bytes)
	}
}

// TestLearnFlipsTheJoin is E6's acceptance check: warm, every step of every
// query — the join's data-node scans included — is estimated exactly, and
// the learned side counts turn the cold plan's broadcast into a shuffle.
// Message counts are exact: the fabric counts messages, not time.
func TestLearnFlipsTheJoin(t *testing.T) {
	res, err := Learn(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.QErrAfter != 1 || res.JoinWarm.QErr != 1 {
		t.Errorf("warm mean q-error %v (join %v), want 1 over every step", res.QErrAfter, res.JoinWarm.QErr)
	}
	if res.QErrBefore <= res.QErrAfter || res.JoinCold.QErr <= 1 {
		t.Errorf("cold mean q-error %v (join %v): nothing to learn", res.QErrBefore, res.JoinCold.QErr)
	}
	for _, c := range []struct {
		pass     string
		run      LearnJoinRun
		strategy string
		msgs     int64
	}{{"cold", res.JoinCold, "broadcast", 22}, {"warm", res.JoinWarm, "shuffle", 34}} {
		if c.run.Strategy != c.strategy || c.run.Msgs != c.msgs {
			t.Errorf("%s join: %s in %d messages, want %s in %d", c.pass, c.run.Strategy, c.run.Msgs, c.strategy, c.msgs)
		}
	}
	if res.JoinWarm.Bytes >= res.JoinCold.Bytes {
		t.Errorf("warm join moved %d B, not fewer than the cold plan's %d B", res.JoinWarm.Bytes, res.JoinCold.Bytes)
	}
}
