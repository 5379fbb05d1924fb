package cluster

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/types"
)

// --- bucket-map edge cases under failure (previously untested) -------------

func TestMoveBucketToDownNode(t *testing.T) {
	c := newCluster(t, 3, ModeGTMLite)
	setupAccounts(t, c, 40)
	c.SetDataNodeDown(2, true)

	// Pick a bucket currently owned by a live node.
	bucket := BucketOf(types.NewInt(keyInBucket(0)))
	_ = bucket
	if _, err := c.MoveBucket(0, 2); err == nil {
		t.Fatal("MoveBucket to a down node succeeded")
	} else if !errors.Is(err, ErrRebalanceRetry) {
		t.Fatalf("want retryable error, got %v", err)
	}
	// The bucket stayed on its source and data is intact.
	if got := mustChecksum(t, c, "accounts"); got.Rows != 40 {
		t.Fatalf("accounts rows = %d, want 40", got.Rows)
	}
}

func TestMoveBucketFromDownNode(t *testing.T) {
	c := newCluster(t, 3, ModeGTMLite)
	setupAccounts(t, c, 40)

	// Find a bucket owned by dn1, then take dn1 down: the source of the
	// move is dead, so the copy cannot start.
	owners := c.BucketOwners()
	bucket := -1
	for b, dn := range owners {
		if dn == 1 {
			bucket = b
			break
		}
	}
	if bucket < 0 {
		t.Fatal("no bucket owned by dn1")
	}
	c.SetDataNodeDown(1, true)
	if _, err := c.MoveBucket(bucket, 2); err == nil {
		t.Fatal("MoveBucket from a down node succeeded")
	} else if !errors.Is(err, ErrRebalanceRetry) {
		t.Fatalf("want retryable error, got %v", err)
	}
	if got := c.BucketOwners()[bucket]; got != 1 {
		t.Fatalf("bucket %d moved to dn%d despite failed move", bucket, got)
	}
}

func TestNodeReUpRestoresRouting(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 30)

	// A key routed to dn1 fails while dn1 is down...
	key := int64(0)
	for c.RouteKey(types.NewInt(key)) != 1 {
		key++
	}
	c.SetDataNodeDown(1, true)
	if _, err := s.Exec(fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", key)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("query against down node: got %v, want ErrNodeDown", err)
	}
	// ...and works again after the node comes back, including writes.
	c.SetDataNodeDown(1, false)
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = 111 WHERE id = %d", key))
	res := mustExec(t, s, fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", key))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 111 {
		t.Fatalf("re-upped node did not serve the write: %v", res.Rows)
	}
	if got := mustChecksum(t, c, "accounts"); got.Rows != 30 {
		t.Fatalf("accounts rows = %d, want 30", got.Rows)
	}
}

func TestReplicatedWriteDownSentinel(t *testing.T) {
	c := newCluster(t, 3, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE dim (k BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
	mustExec(t, s, "INSERT INTO dim VALUES (1, 'a')")

	c.SetDataNodeDown(2, true)
	_, err := s.Exec("INSERT INTO dim VALUES (2, 'b')")
	if err == nil {
		t.Fatal("replicated write with a replica down succeeded")
	}
	if !errors.Is(err, ErrReplicatedWriteDown) {
		t.Fatalf("error %v is not ErrReplicatedWriteDown", err)
	}
	if !errors.Is(err, ErrNodeDown) {
		t.Fatalf("error %v does not wrap ErrNodeDown", err)
	}
	// UPDATE and DELETE carry the same sentinel.
	if _, err := s.Exec("UPDATE dim SET name = 'c' WHERE k = 1"); !errors.Is(err, ErrReplicatedWriteDown) {
		t.Fatalf("update: %v is not ErrReplicatedWriteDown", err)
	}
	if _, err := s.Exec("DELETE FROM dim WHERE k = 1"); !errors.Is(err, ErrReplicatedWriteDown) {
		t.Fatalf("delete: %v is not ErrReplicatedWriteDown", err)
	}
	// Reads still fail over to a live replica.
	res := mustExec(t, s, "SELECT count(*) FROM dim")
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("replicated read after failover: %v", res.Rows)
	}
}

// --- standby lifecycle primitives ------------------------------------------

func TestAddStandbyMirrorsAndHides(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 50)
	mustExec(t, s, "CREATE TABLE dim (k BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
	mustExec(t, s, "INSERT INTO dim VALUES (1, 'a')")

	before := mustChecksum(t, c, "accounts")
	ready := -1
	sid, err := c.AddStandby(0, func(id int) { ready = id })
	if err != nil {
		t.Fatalf("AddStandby: %v", err)
	}
	if ready != sid {
		t.Fatalf("onReady got %d, want %d", ready, sid)
	}
	if got := c.Standbys(0); len(got) != 1 || got[0] != sid {
		t.Fatalf("Standbys(0) = %v, want [%d]", got, sid)
	}

	// The mirror is physically complete...
	want, err := c.PartitionDigest("accounts", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.PartitionDigest("accounts", sid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("standby mirror differs: primary %+v standby %+v", want, got)
	}
	// ...but invisible: cluster-wide contents unchanged, scans skip the
	// standby.
	if after := mustChecksum(t, c, "accounts"); after != before {
		t.Fatalf("checksum changed after AddStandby: %+v != %+v", after, before)
	}
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("scatter count after AddStandby: %v", res.Rows)
	}

	// Replicated writes reach the standby through the ordinary path.
	mustExec(t, s, "INSERT INTO dim VALUES (2, 'b')")
	dwant, err := c.PartitionDigest("dim", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	dgot, err := c.PartitionDigest("dim", sid, 0)
	if err != nil {
		t.Fatal(err)
	}
	if dwant != dgot {
		t.Fatalf("replicated table diverged on standby: %+v != %+v", dwant, dgot)
	}

	// A standby can never become a bucket-move target.
	if _, err := c.MoveBucket(0, sid); err == nil {
		t.Fatal("MoveBucket onto a standby succeeded")
	}

	// Replica groups: a second standby of the same primary and a chained
	// standby-of-standby both seed complete, invisible mirrors.
	sid2, err := c.AddStandby(0, nil)
	if err != nil {
		t.Fatalf("second AddStandby: %v", err)
	}
	chained, err := c.AddStandby(sid, nil)
	if err != nil {
		t.Fatalf("chained AddStandby: %v", err)
	}
	if got := c.Standbys(0); len(got) != 2 || got[0] != sid || got[1] != sid2 {
		t.Fatalf("Standbys(0) = %v, want [%d %d]", got, sid, sid2)
	}
	if got := c.Standbys(sid); len(got) != 1 || got[0] != chained {
		t.Fatalf("Standbys(%d) = %v, want [%d]", sid, got, chained)
	}
	for _, node := range []int{sid2, chained} {
		got, err := c.PartitionDigest("accounts", node, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("dn%d mirror differs from primary: %+v != %+v", node, got, want)
		}
	}
	if after := mustChecksum(t, c, "accounts"); after != before {
		t.Fatalf("checksum changed after group attach: %+v != %+v", after, before)
	}
}

func TestPromoteStandbyFlipsOwnership(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 60)
	before := mustChecksum(t, c, "accounts")

	sid, err := c.AddStandby(1, nil)
	if err != nil {
		t.Fatalf("AddStandby: %v", err)
	}
	c.SetDataNodeDown(1, true)
	flipped, err := c.PromoteStandby(1, sid, func() {})
	if err != nil {
		t.Fatalf("PromoteStandby: %v", err)
	}
	if flipped == 0 {
		t.Fatal("no buckets flipped")
	}
	for b, dn := range c.BucketOwners() {
		if dn == 1 {
			t.Fatalf("bucket %d still owned by retired dn1", b)
		}
	}
	// Contents identical through the promoted standby.
	if after := mustChecksum(t, c, "accounts"); after != before {
		t.Fatalf("checksum changed across promotion: %+v != %+v", after, before)
	}
	// Reads and writes to the flipped buckets now succeed; re-upping the
	// retired primary must NOT bring it back into routing.
	c.SetDataNodeDown(1, false)
	key := int64(0)
	for c.RouteKey(types.NewInt(key)) != sid {
		key++
	}
	mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = 777 WHERE id = %d", key))
	res := mustExec(t, s, fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", key))
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 777 {
		t.Fatalf("promoted standby write not visible: %v", res.Rows)
	}
	res = mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 60 {
		t.Fatalf("scatter count after promotion: %v", res.Rows)
	}
	// The retired node takes no new standby either.
	if _, err := c.AddStandby(1, nil); err == nil {
		t.Fatal("AddStandby for a retired node succeeded")
	}
}
