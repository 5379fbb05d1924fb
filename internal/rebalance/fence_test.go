package rebalance

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

func loadRows(t *testing.T, c *cluster.Cluster, rows int) {
	t.Helper()
	s := c.NewSession()
	if _, err := s.Exec("CREATE TABLE accounts (id BIGINT, balance BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := s.Exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, 100)", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func bucketOwnedBy(t *testing.T, c *cluster.Cluster, dn int) int {
	t.Helper()
	for b, owner := range c.BucketOwners() {
		if owner == dn {
			return b
		}
	}
	t.Fatalf("dn%d owns no buckets", dn)
	return -1
}

// TestMoveBucketReturnsShardFenced pins the typed fence error: a move
// whose source (or target) is a downed node with standbys attached fails
// with cluster.ErrShardFenced — which still satisfies ErrRebalanceRetry
// for orchestrators that only know the coarser sentinel.
func TestMoveBucketReturnsShardFenced(t *testing.T) {
	c := newCluster(t, 2)
	loadRows(t, c, 30)
	if _, err := c.AddStandby(0, nil); err != nil {
		t.Fatalf("AddStandby: %v", err)
	}
	c.SetDataNodeDown(0, true)
	if !c.ShardFenced(0) {
		t.Fatal("downed primary with a standby not reported fenced")
	}

	b := bucketOwnedBy(t, c, 0)
	_, err := c.MoveBucket(b, 1)
	if !errors.Is(err, cluster.ErrShardFenced) {
		t.Fatalf("move off a fenced source: got %v, want ErrShardFenced", err)
	}
	if !errors.Is(err, cluster.ErrRebalanceRetry) {
		t.Fatalf("ErrShardFenced must wrap ErrRebalanceRetry, got %v", err)
	}

	// A plainly dead node (no standbys) is NOT fenced: there is no
	// promotion to wait for, only the generic retryable error.
	c2 := newCluster(t, 2)
	loadRows(t, c2, 10)
	c2.SetDataNodeDown(0, true)
	if c2.ShardFenced(0) {
		t.Fatal("standby-less down node reported fenced")
	}
	_, err = c2.MoveBucket(bucketOwnedBy(t, c2, 0), 1)
	if errors.Is(err, cluster.ErrShardFenced) {
		t.Fatalf("standby-less down source produced a fence error: %v", err)
	}
	if !errors.Is(err, cluster.ErrRebalanceRetry) {
		t.Fatalf("want retryable error, got %v", err)
	}
}

// TestMoveWaitsForFailoverAndRetargets: a move whose target dies inside a
// failover window (standby attached) fence-waits instead of burning
// retries; once the standby is promoted, the move re-targets the
// successor and completes.
func TestMoveWaitsForFailoverAndRetargets(t *testing.T) {
	c := newCluster(t, 2)
	loadRows(t, c, 40)
	sid, err := c.AddStandby(1, nil)
	if err != nil {
		t.Fatalf("AddStandby: %v", err)
	}
	before := checksum(t, c, "accounts")

	// The target enters a failover window before the move starts.
	c.SetDataNodeDown(1, true)

	// Resolve the failover after a beat: promote dn1's standby. (No
	// records shipped since the seed, so the mirror is complete.)
	done := make(chan error, 1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		_, err := c.PromoteStandby(1, sid, func() {})
		done <- err
	}()

	r := New(c, Options{
		MaxConcurrentMoves: 1,
		MaxRetries:         2,
		RetryBackoff:       time.Millisecond,
		FailoverWait:       5 * time.Second,
	})
	b := bucketOwnedBy(t, c, 0)
	if err := r.MoveBuckets([]Move{{Bucket: b, Target: 1}}); err != nil {
		t.Fatalf("MoveBuckets across target failover: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("PromoteStandby: %v", err)
	}

	p := r.Progress()
	if p.FenceWaits == 0 {
		t.Fatal("no fence waits recorded")
	}
	if p.Failed != 0 || p.Moved != 1 {
		t.Fatalf("progress %+v, want 1 moved 0 failed", p)
	}
	if got := c.BucketOwners()[b]; got != sid {
		t.Fatalf("bucket %d owned by dn%d, want successor dn%d", b, got, sid)
	}
	if after := checksum(t, c, "accounts"); after != before {
		t.Fatalf("contents changed across fence-wait move: %+v != %+v", after, before)
	}
}

// TestMoveFailsAfterFenceDeadline: a fence that never resolves bounds the
// wait — the move gives up at FailoverWait with the fence error, not a
// hot loop of retries.
func TestMoveFailsAfterFenceDeadline(t *testing.T) {
	c := newCluster(t, 2)
	loadRows(t, c, 10)
	if _, err := c.AddStandby(0, nil); err != nil {
		t.Fatal(err)
	}
	c.SetDataNodeDown(0, true) // fenced forever: nobody promotes

	r := New(c, Options{
		MaxConcurrentMoves: 1,
		MaxRetries:         2,
		RetryBackoff:       time.Millisecond,
		FailoverWait:       30 * time.Millisecond,
	})
	b := bucketOwnedBy(t, c, 0)
	start := time.Now()
	err := r.MoveBuckets([]Move{{Bucket: b, Target: 1}})
	if !errors.Is(err, cluster.ErrShardFenced) {
		t.Fatalf("unresolved fence: got %v, want ErrShardFenced", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("fence deadline not honored: gave up after %v", elapsed)
	}
	if p := r.Progress(); p.Failed != 1 || p.FenceWaits == 0 {
		t.Fatalf("progress %+v, want 1 failed with fence waits", p)
	}
}
