package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/types"
)

// keyInBucket returns a small int64 key hashing into the given bucket.
func keyInBucket(bucket int) int64 { return keyInBucketFrom(bucket, 0) }

// keyInBucketFrom returns the first key >= from hashing into bucket.
func keyInBucketFrom(bucket int, from int64) int64 {
	for k := from; ; k++ {
		if BucketOf(types.NewInt(k)) == bucket {
			return k
		}
	}
}

func mustChecksum(t *testing.T, c *Cluster, table string) TableDigest {
	t.Helper()
	d, err := c.TableChecksum(table)
	if err != nil {
		t.Fatalf("TableChecksum(%s): %v", table, err)
	}
	return d
}

func TestAddDataNodeRegistersShard(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 50)
	mustExec(t, s, "CREATE TABLE dim (k BIGINT, name TEXT) DISTRIBUTE BY REPLICATION")
	mustExec(t, s, "INSERT INTO dim VALUES (1, 'one'), (2, 'two')")

	routesBefore := make(map[int64]int)
	for k := int64(0); k < 50; k++ {
		routesBefore[k] = c.RouteKey(types.NewInt(k))
	}

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 || c.DataNodeCount() != 3 {
		t.Fatalf("id=%d count=%d, want 2 and 3", id, c.DataNodeCount())
	}
	// The new shard holds the full replicated table but no buckets yet.
	if n, err := c.DNVisibleRows("dim", id); err != nil || n != 2 {
		t.Fatalf("dim on dn%d: %d rows (err %v), want 2", id, n, err)
	}
	if n, _ := c.DNVisibleRows("accounts", id); n != 0 {
		t.Fatalf("accounts on fresh dn%d: %d rows, want 0", id, n)
	}
	for k, dn := range routesBefore {
		if got := c.RouteKey(types.NewInt(k)); got != dn {
			t.Fatalf("key %d rerouted dn%d->dn%d by AddDataNode alone", k, dn, got)
		}
	}
	// Existing data still fully queryable, including on the grown node set.
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 50 {
		t.Fatalf("count = %v", res.Rows[0][0])
	}
	// And the new shard accepts writes to replicated tables.
	mustExec(t, s, "INSERT INTO dim VALUES (3, 'three')")
	if n, _ := c.DNVisibleRows("dim", id); n != 3 {
		t.Fatalf("dim on dn%d after insert: %d rows, want 3", id, n)
	}
}

func TestMoveBucketMigratesData(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 300)
	before := mustChecksum(t, c, "accounts")

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	plan := c.ExpansionPlan(id)
	if len(plan) == 0 {
		t.Fatal("empty expansion plan")
	}
	for _, b := range plan {
		if _, err := c.MoveBucket(b, id); err != nil {
			t.Fatalf("MoveBucket(%d, %d): %v", b, id, err)
		}
	}

	after := mustChecksum(t, c, "accounts")
	if after != before {
		t.Fatalf("checksum changed across migration: %+v -> %+v", before, after)
	}
	owners := c.BucketOwners()
	for _, b := range plan {
		if owners[b] != id {
			t.Errorf("bucket %d owned by dn%d after move, want dn%d", b, owners[b], id)
		}
	}
	if n, _ := c.DNVisibleRows("accounts", id); n == 0 {
		t.Error("no rows landed on the new shard")
	}
	// Retired source copies were physically reaped: exactly one version per
	// row remains across the cluster (no updates ran, so versions == rows).
	ti, _ := c.tableInfo("accounts")
	versions := 0
	for _, part := range *ti.parts.Load() {
		versions += part.row.VersionCount()
	}
	if versions != 300 {
		t.Errorf("%d heap versions across shards, want 300 (retired copies not reaped)", versions)
	}
	// Queries route to the moved bucket's new home.
	k := keyInBucket(plan[0])
	res := mustExec(t, s, fmt.Sprintf("SELECT count(*) FROM accounts WHERE id = %d", k))
	if k < 300 && res.Rows[0][0].Int() != 1 {
		t.Errorf("lookup of migrated key %d found %v rows", k, res.Rows[0][0])
	}
}

func TestMoveBucketColumnarTable(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := c.NewSession()
	mustExec(t, s, "CREATE TABLE events (id BIGINT, val BIGINT) DISTRIBUTE BY HASH(id) USING COLUMN")
	for i := 0; i < 200; i++ {
		mustExec(t, s, fmt.Sprintf("INSERT INTO events VALUES (%d, %d)", i, i*7))
	}
	before := mustChecksum(t, c, "events")

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range c.ExpansionPlan(id) {
		if _, err := c.MoveBucket(b, id); err != nil {
			t.Fatalf("MoveBucket(%d): %v", b, err)
		}
	}
	if after := mustChecksum(t, c, "events"); after != before {
		t.Fatalf("columnar checksum changed: %+v -> %+v", before, after)
	}
	if n, _ := c.DNVisibleRows("events", id); n == 0 {
		t.Error("no columnar rows on the new shard")
	}
	res := mustExec(t, s, "SELECT count(*), sum(val) FROM events")
	if res.Rows[0][0].Int() != 200 {
		t.Fatalf("count = %v after columnar migration", res.Rows[0][0])
	}
}

// TestMoveBucketTargetDownMidMigration: a target failure after the copy
// phase aborts the move with a retryable error, the bucket stays on its
// source, no partial data is visible, and a later retry completes.
func TestMoveBucketTargetDownMidMigration(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 200)
	before := mustChecksum(t, c, "accounts")

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	bucket := c.ExpansionPlan(id)[0]
	src := c.BucketOwners()[bucket]

	c.MoveHook = func(stage string, b, target int) {
		if stage == "copied" {
			c.SetDataNodeDown(target, true)
		}
	}
	_, err = c.MoveBucket(bucket, id)
	if !errors.Is(err, ErrRebalanceRetry) {
		t.Fatalf("move with downed target: err = %v, want ErrRebalanceRetry", err)
	}
	if got := c.BucketOwners()[bucket]; got != src {
		t.Fatalf("bucket %d owner dn%d after failed move, want dn%d", bucket, got, src)
	}

	// Back online: no partial bucket is visible anywhere.
	c.MoveHook = nil
	c.SetDataNodeDown(id, false)
	if d := mustChecksum(t, c, "accounts"); d != before {
		t.Fatalf("failed move corrupted data: %+v -> %+v", before, d)
	}
	res := mustExec(t, s, "SELECT count(*) FROM accounts")
	if res.Rows[0][0].Int() != 200 {
		t.Fatalf("count = %v after aborted move", res.Rows[0][0])
	}

	// The retry succeeds and flips the bucket.
	if _, err := c.MoveBucket(bucket, id); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if got := c.BucketOwners()[bucket]; got != id {
		t.Fatalf("bucket %d owner dn%d after retry, want dn%d", bucket, got, id)
	}
	if d := mustChecksum(t, c, "accounts"); d != before {
		t.Fatalf("retried move corrupted data: %+v -> %+v", before, d)
	}
}

// TestFrozenBucketWriteFails: writes hitting a bucket inside its cutover
// window fail with ErrBucketMigrating instead of blocking the drain.
func TestFrozenBucketWriteFails(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	setupAccounts(t, c, 100)
	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	bucket := c.ExpansionPlan(id)[0]
	key := keyInBucketFrom(bucket, 100000)

	var frozenErr error
	hookRan := false
	c.MoveHook = func(stage string, b, target int) {
		if stage != "frozen" {
			return
		}
		hookRan = true
		s2 := c.NewSession()
		_, frozenErr = s2.Exec(fmt.Sprintf("INSERT INTO accounts VALUES (%d, 0, 100)", key))
	}
	if _, err := c.MoveBucket(bucket, id); err != nil {
		t.Fatalf("MoveBucket: %v", err)
	}
	if !hookRan {
		t.Fatal("frozen hook never ran")
	}
	if !errors.Is(frozenErr, ErrBucketMigrating) {
		t.Fatalf("write into frozen bucket: err = %v, want ErrBucketMigrating", frozenErr)
	}
}

// TestMoveBucketDrainTimeout: an open transaction parked on the bucket makes
// the cutover drain time out retryably; after it commits the retry wins.
func TestMoveBucketDrainTimeout(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	s := setupAccounts(t, c, 100)
	c.DrainTimeout = 50 * time.Millisecond

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	bucket := c.ExpansionPlan(id)[0]
	key := keyInBucketFrom(bucket, 1000000)

	// Park an uncommitted insert in the bucket.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, fmt.Sprintf("INSERT INTO accounts VALUES (%d, 0, 100)", key))

	_, err = c.MoveBucket(bucket, id)
	if !errors.Is(err, ErrRebalanceRetry) {
		t.Fatalf("move over open txn: err = %v, want ErrRebalanceRetry", err)
	}
	mustExec(t, s, "COMMIT")

	if _, err := c.MoveBucket(bucket, id); err != nil {
		t.Fatalf("retry after commit: %v", err)
	}
	// The parked row migrated with the bucket.
	res := mustExec(t, s, fmt.Sprintf("SELECT count(*) FROM accounts WHERE id = %d", key))
	if res.Rows[0][0].Int() != 1 {
		t.Fatalf("parked row lost: count = %v", res.Rows[0][0])
	}
	if n, _ := c.DNVisibleRows("accounts", id); n == 0 {
		t.Error("no rows on target after retried move")
	}
}

// TestParallelScanDuringExpansion runs scatter SELECTs at ParallelDegree 4
// while every planned bucket migrates to a freshly added node. The
// ownership filter must keep each result exact — a half-copied bucket's
// rows exist on two shards simultaneously, and concurrent fragments must
// not ship those migration phantoms. Run under -race this also exercises
// the fragment/rebalancer synchronization (routeMu pinning).
func TestParallelScanDuringExpansion(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	setupAccounts(t, c, 400)
	c.ParallelDegree = 4
	before := mustChecksum(t, c, "accounts")

	id, err := c.AddDataNode()
	if err != nil {
		t.Fatal(err)
	}
	plan := c.ExpansionPlan(id)
	if len(plan) == 0 {
		t.Fatal("empty expansion plan")
	}

	stop := make(chan struct{})
	errCh := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := c.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := s.Exec("SELECT count(*), sum(balance) FROM accounts")
				if err != nil {
					errCh <- err
					return
				}
				if res.Rows[0][0].Int() != 400 || res.Rows[0][1].Int() != 400*100 {
					errCh <- fmt.Errorf("inconsistent scatter read during migration: %v", res.Rows[0])
					return
				}
			}
		}()
	}

	for _, b := range plan {
		// Concurrent readers can delay a drain; retry retryable failures.
		for attempt := 0; ; attempt++ {
			_, err := c.MoveBucket(b, id)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrRebalanceRetry) || attempt > 20 {
				close(stop)
				wg.Wait()
				t.Fatalf("MoveBucket(%d, %d): %v", b, id, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if after := mustChecksum(t, c, "accounts"); after != before {
		t.Fatalf("checksum changed across concurrent migration: %+v -> %+v", before, after)
	}
	if n, _ := c.DNVisibleRows("accounts", id); n == 0 {
		t.Error("no rows landed on the new shard")
	}
}
