package cluster

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
)

// TestUpdateEnforcesPrimaryKey: an UPDATE that moves a row onto another
// row's key is refused like the INSERT of that key — on a distributed and on
// a replicated table, as a statement and inside a transaction.
func TestUpdateEnforcesPrimaryKey(t *testing.T) {
	for _, dist := range []string{"DISTRIBUTE BY HASH(w)", "DISTRIBUTE BY REPLICATION"} {
		t.Run(dist, func(t *testing.T) {
			c := newCluster(t, 4, ModeGTMLite)
			s := c.NewSession()
			mustExec(t, s, "CREATE TABLE d (w INT, d INT, v INT, PRIMARY KEY (w, d)) "+dist)
			mustExec(t, s, "INSERT INTO d VALUES (1, 1, 10), (1, 2, 20)")
			contents := func() string {
				t.Helper()
				return canon(mustExec(t, c.NewSession(), "SELECT w, d, v FROM d").Rows)
			}
			before := contents()
			const collide = "UPDATE d SET d = 2 WHERE w = 1 AND d = 1"

			if _, err := s.Exec(collide); !errors.Is(err, storage.ErrDuplicateKey) {
				t.Fatalf("%s: err = %v, want ErrDuplicateKey", collide, err)
			}
			if _, err := s.Exec("INSERT INTO d VALUES (1, 2, 30)"); !errors.Is(err, storage.ErrDuplicateKey) {
				t.Fatalf("INSERT of an existing key: err = %v, want ErrDuplicateKey", err)
			}
			if got := contents(); got != before {
				t.Fatalf("refused statements changed the table:\n%s\nwant\n%s", got, before)
			}

			mustExec(t, s, "BEGIN")
			mustExec(t, s, "UPDATE d SET v = v + 1 WHERE w = 1 AND d = 2")
			if _, err := s.Exec(collide); !errors.Is(err, storage.ErrDuplicateKey) {
				t.Fatalf("%s in a transaction: err = %v, want ErrDuplicateKey", collide, err)
			}
			if _, err := s.Exec("SELECT v FROM d"); !errors.Is(err, ErrTxnAborted) {
				t.Fatalf("statement after the refused UPDATE: err = %v, want ErrTxnAborted", err)
			}
			if _, err := s.Exec("COMMIT"); !errors.Is(err, ErrTxnAborted) {
				t.Fatalf("COMMIT after the refused UPDATE: err = %v, want ErrTxnAborted", err)
			}
			if got := contents(); got != before {
				t.Fatalf("aborted transaction changed the table:\n%s\nwant\n%s", got, before)
			}

			// Keys that stay distinct may move, key columns included.
			if res := mustExec(t, s, "UPDATE d SET d = d + 2 WHERE w = 1"); res.RowsAffected != 2 {
				t.Fatalf("UPDATE to free keys affected %d rows, want 2", res.RowsAffected)
			}
			if got, want := contents(), "1, 3, 10\n1, 4, 20"; got != want {
				t.Fatalf("table holds\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestConcurrentSessionsCannotCommitOneKey: two sessions that each insert
// the same primary key inside a transaction cannot both commit it — the
// second insert fails first-updater-wins while the first is open, and
// succeeds once the first rolled back, though its snapshot predates that.
func TestConcurrentSessionsCannotCommitOneKey(t *testing.T) {
	for _, dist := range []string{"DISTRIBUTE BY HASH(k)", "DISTRIBUTE BY REPLICATION"} {
		t.Run(dist, func(t *testing.T) {
			c := newCluster(t, 4, ModeGTMLite)
			mustExec(t, c.NewSession(), "CREATE TABLE kv (k BIGINT PRIMARY KEY, v BIGINT) "+dist)
			a, b := c.NewSession(), c.NewSession()
			mustExec(t, a, "BEGIN")
			mustExec(t, a, "INSERT INTO kv VALUES (1, 10)")
			mustExec(t, b, "BEGIN")
			if _, err := b.Exec("INSERT INTO kv VALUES (1, 20)"); !errors.Is(err, storage.ErrWriteConflict) {
				t.Fatalf("second insert of an open transaction's key: err = %v, want ErrWriteConflict", err)
			}
			mustExec(t, a, "COMMIT")
			if _, err := b.Exec("COMMIT"); !errors.Is(err, ErrTxnAborted) {
				t.Fatalf("COMMIT after the refused insert: err = %v, want ErrTxnAborted", err)
			}
			if got, want := canon(mustExec(t, c.NewSession(), "SELECT k, v FROM kv WHERE k = 1").Rows), "1, 10"; got != want {
				t.Fatalf("key 1 holds\n%s\nwant\n%s", got, want)
			}

			mustExec(t, a, "BEGIN")
			mustExec(t, a, "INSERT INTO kv VALUES (2, 10)")
			mustExec(t, b, "BEGIN")
			mustExec(t, b, "SELECT v FROM kv") // b's snapshot: a still open
			mustExec(t, a, "ROLLBACK")
			mustExec(t, b, "INSERT INTO kv VALUES (2, 20)")
			mustExec(t, b, "COMMIT")
			if got, want := canon(mustExec(t, c.NewSession(), "SELECT k, v FROM kv").Rows), "1, 10\n2, 20"; got != want {
				t.Fatalf("table holds\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestVacuumUnderConcurrentUpdates: a statement's snapshot can list a
// writer as active that commits a moment later; a vacuum whose horizon is
// the oldest active xid would then drop the version only that snapshot
// still sees, and the statement would update no row and report success.
// Every UPDATE here either changes exactly its one row or fails with a
// write conflict, and the row ends at the number of successes.
func TestVacuumUnderConcurrentUpdates(t *testing.T) {
	c := newCluster(t, 2, ModeGTMLite)
	mustExec(t, c.NewSession(), "CREATE TABLE hot (k BIGINT, v BIGINT, PRIMARY KEY (k)) DISTRIBUTE BY HASH(k)")
	mustExec(t, c.NewSession(), "INSERT INTO hot VALUES (1, 0)")

	stop := make(chan struct{})
	var vacuums sync.WaitGroup
	vacuums.Add(1)
	go func() {
		defer vacuums.Done()
		for {
			select {
			case <-stop:
				return
			default:
				c.Vacuum()
			}
		}
	}()
	var writers sync.WaitGroup
	var applied atomic.Int64
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			s := c.NewSession()
			for i := 0; i < 400; i++ {
				res, err := s.Exec("UPDATE hot SET v = v + 1 WHERE k = 1")
				switch {
				case err == nil && res.RowsAffected == 1:
					applied.Add(1)
				case err == nil:
					t.Errorf("UPDATE of a present row affected %d rows and reported success", res.RowsAffected)
				case !errors.Is(err, storage.ErrWriteConflict):
					t.Errorf("UPDATE failed with %v, want a write conflict at worst", err)
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	vacuums.Wait()
	if got := mustExec(t, c.NewSession(), "SELECT v FROM hot WHERE k = 1").Rows[0][0].Int(); got != applied.Load() {
		t.Fatalf("v = %d after %d successful increments", got, applied.Load())
	}
}
