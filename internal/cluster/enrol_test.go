package cluster

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/transport"
)

// topology is everything an enrolment may change: the partition sets (by
// identity — a rollback must restore the very sets it swapped out), the
// node count and the routing-side maps.
type topology struct {
	parts     map[string]*tableParts
	nodes     int
	standbys  map[int]int
	standbyOf map[int][]int
	retired   map[int]bool
	down      map[int]bool
	successor map[int]int
}

func snapshotTopology(c *Cluster) topology {
	tp := topology{
		parts: map[string]*tableParts{}, nodes: c.DataNodeCount(),
		standbys: map[int]int{}, standbyOf: map[int][]int{},
		retired: map[int]bool{}, down: map[int]bool{}, successor: map[int]int{},
	}
	for name, ti := range c.tables {
		tp.parts[name] = ti.parts.Load()
	}
	for k, v := range c.standbys {
		tp.standbys[k] = v
	}
	for k, v := range c.standbyOf {
		if len(v) > 0 {
			tp.standbyOf[k] = append([]int(nil), v...)
		}
	}
	for k, v := range c.retired {
		tp.retired[k] = v
	}
	for k, v := range c.downNodes {
		tp.down[k] = v
	}
	for k, v := range c.successor {
		tp.successor[k] = v
	}
	return tp
}

// TestEnrolment drives the one enrolment body through its three standby
// entry points — a new node, a retired primary, an existing standby — and,
// for each, through a refused enrolment (upstream cut off by a partition),
// a seed that fails mid-copy (everything rolled back, down to the partition
// sets), and the healthy path (exact mirror, topology published, node back
// in service with no stale retired / successor entry).
//
// Fixture: three primaries, of which dn0 and dn1 each fail over to a fresh
// standby (dn3, dn4); dn0 then re-enrols under dn3. That leaves primaries
// {2, 3, 4}, dn0 an existing standby — with the lowest id, so a wiped node
// copying replicated tables from "the first live node" would copy from
// itself — and dn1 a retired primary whose successor is dn4, the upstream
// every case enrols under.
func TestEnrolment(t *testing.T) {
	const upstream = 4
	kinds := []struct {
		name  string
		node  int // the node enrolled; -1: a new one
		enrol func(c *Cluster, onReady func(int)) error
	}{
		{"new node", -1, func(c *Cluster, onReady func(int)) error {
			_, err := c.AddStandby(upstream, onReady)
			return err
		}},
		{"retired primary", 1, func(c *Cluster, onReady func(int)) error {
			return c.ReenrollStandby(1, upstream, onReady)
		}},
		{"existing standby", 0, func(c *Cluster, onReady func(int)) error {
			return c.ReseedStandby(0, upstream, onReady)
		}},
	}
	conditions := []struct {
		name    string
		arrange func(c *Cluster, node int) // nil: healthy
		restore func(c *Cluster)
		wantErr error
	}{
		{"unreachable upstream",
			func(c *Cluster, _ int) { c.Fabric().Partition(transport.DN(upstream)) },
			func(c *Cluster) { c.Fabric().Heal() }, ErrNodeDown},
		{"seed failure",
			func(c *Cluster, node int) {
				c.Fabric().InjectFault(transport.DN(upstream), transport.DN(node),
					transport.Fault{Types: []transport.MsgType{transport.RebalCopy}, Drop: true})
			},
			func(c *Cluster) { c.Fabric().ClearFaults() }, transport.ErrDropped},
		{"healthy", nil, nil, nil},
	}

	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			c := newCluster(t, 3, ModeGTMLite)
			s := setupAccounts(t, c, 90)
			mustExec(t, s, "CREATE TABLE dim (k BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
			mustExec(t, s, "INSERT INTO dim VALUES (1, 'a'), (2, 'b')")
			for primary := 0; primary <= 1; primary++ {
				sid, err := c.AddStandby(primary, nil)
				if err != nil {
					t.Fatal(err)
				}
				c.SetDataNodeDown(primary, true)
				if _, err := c.PromoteStandby(primary, sid, func() {}); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.ReenrollStandby(0, 3, nil); err != nil {
				t.Fatal(err)
			}
			node := kind.node
			if node < 0 {
				node = c.DataNodeCount()
			}
			wantRows := mustChecksum(t, c, "accounts")

			for _, cond := range conditions {
				before := snapshotTopology(c)
				ready := -1
				if cond.arrange != nil {
					cond.arrange(c, node)
				}
				err := kind.enrol(c, func(id int) { ready = id })
				if cond.restore != nil {
					cond.restore(c)
				}
				if cond.wantErr != nil {
					if !errors.Is(err, cond.wantErr) {
						t.Fatalf("%s: error %v, want %v", cond.name, err, cond.wantErr)
					}
					if after := snapshotTopology(c); !reflect.DeepEqual(after, before) || ready != -1 {
						t.Fatalf("%s: refused enrolment changed the topology (onReady=%d)\nbefore %+v\nafter  %+v", cond.name, ready, before, after)
					}
					for name, ti := range c.tables {
						if ti.parts.Load() != before.parts[name] {
							t.Fatalf("%s: table %q is left with a swapped partition set", cond.name, name)
						}
					}
					continue
				}
				if err != nil || ready != node {
					t.Fatalf("healthy enrolment: onReady(%d), err %v; want dn%d", ready, err, node)
				}
			}

			// Published: a standby of upstream only, back in service.
			if up, ok := c.standbys[node]; !ok || up != upstream {
				t.Errorf("standbys[%d] = %d, %v; want %d", node, up, ok, upstream)
			}
			for up, sibs := range c.standbyOf {
				for _, sib := range sibs {
					if sib == node && up != upstream {
						t.Errorf("dn%d still listed under its previous upstream dn%d", node, up)
					}
				}
			}
			if sibs := c.Standbys(upstream); len(sibs) != 1 || sibs[0] != node {
				t.Errorf("Standbys(%d) = %v, want [%d]", upstream, sibs, node)
			}
			if c.retired[node] || c.downNodes[node] {
				t.Errorf("dn%d still retired (%v) or down (%v)", node, c.retired[node], c.downNodes[node])
			}
			if succ, ok := c.Successor(node); ok {
				t.Errorf("Successor(%d) = %d for a node back in service", node, succ)
			}

			// Seeded: an exact, invisible mirror plus a full replicated copy.
			want, _ := c.PartitionDigest("accounts", upstream, upstream)
			if got, _ := c.PartitionDigest("accounts", node, upstream); got != want || want.Rows == 0 {
				t.Errorf("mirror on dn%d = %+v, upstream holds %+v", node, got, want)
			}
			wantDim, _ := c.PartitionDigest("dim", 2, 2)
			if got, _ := c.PartitionDigest("dim", node, node); got != wantDim || wantDim.Rows != 2 {
				t.Errorf("replicated copy on dn%d = %+v, want %+v", node, got, wantDim)
			}
			if got := mustChecksum(t, c, "accounts"); got != wantRows {
				t.Errorf("cluster-wide contents changed: %+v -> %+v", wantRows, got)
			}
			// Replicated writes reach the enrolled node like any replica.
			mustExec(t, s, "INSERT INTO dim VALUES (3, 'c')")
			if got, _ := c.PartitionDigest("dim", node, node); got.Rows != 3 {
				t.Errorf("replicated write did not reach dn%d: %+v", node, got)
			}
		})
	}
}

// TestEnrolmentSplicesSuccessorChain: a retired node that re-enters service
// in the middle of a promotion chain (0→2→3, dn2 re-enrolled under dn3) is
// spliced out of it, not cut out — Successor(0) must keep leading to the
// primary serving dn0's buckets, never to the standby dn2 has become.
func TestEnrolmentSplicesSuccessorChain(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	setupAccounts(t, c, 40)
	for _, primary := range []int{0, 2} {
		sid, err := c.AddStandby(primary, nil)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDataNodeDown(primary, true)
		if _, err := c.PromoteStandby(primary, sid, func() {}); err != nil {
			t.Fatal(err)
		}
	}
	if succ, ok := c.Successor(0); !ok || succ != 3 {
		t.Fatalf("Successor(0) = %d, %v before the re-enrolment; want 3, true", succ, ok)
	}
	c.SetDataNodeDown(2, false)
	if err := c.ReenrollStandby(2, 3, nil); err != nil {
		t.Fatal(err)
	}
	if succ, ok := c.Successor(0); !ok || succ != 3 {
		t.Errorf("Successor(0) = %d, %v after dn2 re-enrolled under dn3; want 3, true", succ, ok)
	}
	if succ, ok := c.Successor(2); ok {
		t.Errorf("Successor(2) = %d for a node back in service", succ)
	}
	// dn0 returning now re-enrols under the primary, and a later promotion of
	// dn2 extends the chain through it again without a cycle.
	c.SetDataNodeDown(3, true)
	if _, err := c.PromoteStandby(3, 2, func() {}); err != nil {
		t.Fatal(err)
	}
	if succ, ok := c.Successor(0); !ok || succ != 2 {
		t.Errorf("Successor(0) = %d, %v after dn2 was promoted again; want 2, true", succ, ok)
	}
}
