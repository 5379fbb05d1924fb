package cluster_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/htap"
	"repro/internal/repl"
)

// The in-package tests cannot import internal/repl or internal/htap (both
// import cluster); this external half of the test package can, and hands
// them the two kinds of log-fed replica through cluster.LogFedReplicas.
func init() {
	cluster.LogFedReplicas = func(t *testing.T, c *cluster.Cluster) func(string) map[int]cluster.TableDigest {
		t.Helper()
		primaries := c.PrimaryIDs()
		rm := repl.NewManager(c, repl.Config{})
		t.Cleanup(rm.Close)
		for _, p := range primaries {
			if _, err := rm.AttachStandby(p); err != nil {
				t.Fatalf("AttachStandby(%d): %v", p, err)
			}
		}
		hm, err := htap.Enable(c, htap.Config{})
		if err != nil {
			t.Fatalf("htap.Enable: %v", err)
		}
		t.Cleanup(hm.Close)
		return func(table string) map[int]cluster.TableDigest {
			t.Helper()
			deadline := time.Now().Add(5 * time.Second)
			for _, p := range primaries {
				for !rm.Synced(p) {
					if time.Now().After(deadline) {
						t.Fatalf("standbys of dn%d still lag %d records", p, rm.Lag(p))
					}
					time.Sleep(100 * time.Microsecond)
				}
			}
			if err := hm.WaitCaughtUp(5 * time.Second); err != nil {
				t.Fatal(err)
			}
			out := map[int]cluster.TableDigest{}
			for _, st := range hm.Status().Replicas {
				// A replicated table has no HTAP replica: no digest.
				if d, err := hm.ReplicaDigest(table, st.DN); err == nil {
					out[st.DN] = d
				}
			}
			return out
		}
	}
}
