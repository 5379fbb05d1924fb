package cluster

import (
	"errors"
	"fmt"
	"maps"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/transport"
	"repro/internal/types"
)

// A hop is what a statement waits for, not what it sends. These tests pin
// both without timing anything: the fabric gets a recording Sleep that
// returns at once, and every (message type, direction) is tagged with its
// own delay by an injected Delay fault, so the durations a statement hands
// to Sleep say which messages were on its critical path — and the fabric's
// counters say which messages existed at all.

// One tag per message kind a statement can wait for. Powers of two, so no
// wave's maximum and no stream's sum can be mistaken for another tag.
const (
	tagFragReq  = 1 * time.Millisecond // scan_frag cn -> dn
	tagFragResp = 2 * time.Millisecond // scan_frag dn -> cn
	tagWrite    = 4 * time.Millisecond
	tagPrepare  = 8 * time.Millisecond
	tagCommit   = 16 * time.Millisecond
	tagAbort    = 32 * time.Millisecond
	tagGTM      = 64 * time.Millisecond // gtm_round cn -> gtm
	tagShuffle  = 128 * time.Millisecond
	tagBcast    = 256 * time.Millisecond
)

var tagNames = map[time.Duration]string{
	tagFragReq: "scan_frag_req", tagFragResp: "scan_frag_resp", tagWrite: "write",
	tagPrepare: "prepare", tagCommit: "commit", tagAbort: "abort", tagGTM: "gtm_round",
	tagShuffle: "shuffle_part", tagBcast: "bcast_build",
}

// hopLog is the recording transport.Config.Sleep.
type hopLog struct {
	mu    sync.Mutex
	waits map[time.Duration]int
}

func (l *hopLog) sleep(d time.Duration) {
	l.mu.Lock()
	l.waits[d]++
	l.mu.Unlock()
}

// take returns the waits since the last call, by tag name.
func (l *hopLog) take() map[string]int {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int{}
	for d, n := range l.waits {
		name, ok := tagNames[d]
		if !ok {
			name = "untagged:" + d.String()
		}
		out[name] = n
	}
	l.waits = map[time.Duration]int{}
	return out
}

// tagFabric replaces c's fabric with one that never sleeps and tags every
// message kind of an n-node cluster. Call before any table exists.
func tagFabric(c *Cluster, n int) *hopLog {
	log := &hopLog{waits: map[time.Duration]int{}}
	f := transport.New(transport.Config{Sleep: log.sleep})
	tag := func(from, to transport.Endpoint, t transport.MsgType, d time.Duration) {
		f.InjectFault(from, to, transport.Fault{Types: []transport.MsgType{t}, Delay: d})
	}
	tag(transport.CN(), transport.GTM(), transport.GTMRound, tagGTM)
	for i := 0; i < n; i++ {
		dn := transport.DN(i)
		tag(transport.CN(), dn, transport.ScanFrag, tagFragReq)
		tag(dn, transport.CN(), transport.ScanFrag, tagFragResp)
		tag(transport.CN(), dn, transport.Write, tagWrite)
		tag(transport.CN(), dn, transport.Prepare, tagPrepare)
		tag(transport.CN(), dn, transport.Commit, tagCommit)
		tag(transport.CN(), dn, transport.Abort, tagAbort)
		tag(transport.CN(), dn, transport.BcastBuild, tagBcast)
		for j := 0; j < n; j++ {
			if i != j {
				tag(dn, transport.DN(j), transport.ShufflePart, tagShuffle)
				tag(dn, transport.DN(j), transport.BcastBuild, tagBcast)
			}
		}
	}
	c.fab = f
	return log
}

// msgCounts renders a stats delta as type -> delivered messages, zero
// entries left out.
func msgCounts(d transport.Stats) map[string]int {
	out := map[string]int{}
	for _, st := range d {
		if st.Count != 0 {
			out[st.Type.String()] = int(st.Count)
		}
	}
	return out
}

// activeLegs counts the transaction legs still active on c's data nodes.
func activeLegs(c *Cluster) int {
	total := 0
	for _, dn := range c.DataNodes() {
		total += dn.Txm.ActiveCount()
	}
	return total
}

// TestCriticalPathHops pins, per statement class on 4 data nodes at degree
// 4, the messages a statement waits for and the messages it sends. The
// waits are what the protocol needs: a read waits for its fragments and
// never for its own clean-up, a 2PC phase is one wave, a shuffle producer
// pays once per stream. The sends are what carries information: an
// autocommit statement's legs end with the requests that did their work,
// so its reads release nothing and its single-shard write commits with
// its write; an explicit transaction's COMMIT still tells every leg.
func TestCriticalPathHops(t *testing.T) {
	const n = 4
	c := newCluster(t, n, ModeGTMLite)
	log := tagFabric(c, n)
	c.ParallelDegree = n
	s := setupStar(t, c)
	mustExec(t, s, "CREATE TABLE accounts (id BIGINT, branch BIGINT, balance BIGINT, PRIMARY KEY(id)) DISTRIBUTE BY HASH(id)")
	var vals []string
	for i := 0; i < 64; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 100)", i, i%10))
	}
	mustExec(t, s, "INSERT INTO accounts VALUES "+strings.Join(vals, ", "))
	// Two tables big enough that a shuffle stream carries several batches:
	// ~1000 rows per source, ~250 per (source, target) queue, 128 per batch.
	mustExec(t, s, "CREATE TABLE sa (k BIGINT, j BIGINT) DISTRIBUTE BY HASH(k)")
	mustExec(t, s, "CREATE TABLE sb (k BIGINT, j BIGINT) DISTRIBUTE BY HASH(k)")
	for _, tb := range []string{"sa", "sb"} {
		for lo := 0; lo < 4000; lo += 500 {
			vals = vals[:0]
			for i := lo; i < lo+500; i++ {
				vals = append(vals, fmt.Sprintf("(%d, %d)", i, i*7+3))
			}
			mustExec(t, s, "INSERT INTO "+tb+" VALUES "+strings.Join(vals, ", "))
		}
	}

	// step runs one statement and checks its waits and its messages — and,
	// outside a transaction, that no leg outlives it without a message
	// having ended it.
	step := func(name, sql string, wantWaits, wantMsgs map[string]int) {
		t.Helper()
		log.take()
		base := c.fab.Stats()
		mustExec(t, s, sql)
		waits, msgs := log.take(), msgCounts(c.fab.Stats().Sub(base))
		if !maps.Equal(waits, wantWaits) {
			t.Errorf("%s waited on %v, want %v", name, waits, wantWaits)
		}
		if !maps.Equal(msgs, wantMsgs) {
			t.Errorf("%s sent %v, want %v", name, msgs, wantMsgs)
		}
		if n := activeLegs(c); !s.InTxn() && n != 0 {
			t.Errorf("%s left %d active legs", name, n)
		}
	}

	// Read-only scatter statements: the global snapshot, then one request
	// and one response per fragment, side by side. The GTM is told the
	// outcome (the second gtm_round) but nobody waits for that; each leg
	// ended with its fragment, so none is sent a release, and nothing is
	// prepared.
	scatterWaits := map[string]int{"gtm_round": 1, "scan_frag_req": n, "scan_frag_resp": n}
	scatterMsgs := map[string]int{"gtm_round": 2, "scan_frag": 2 * n}
	step("scatter aggregate", "SELECT branch, count(*), sum(balance) FROM accounts GROUP BY branch", scatterWaits, scatterMsgs)
	step("top-N", "SELECT id, balance FROM accounts ORDER BY id DESC LIMIT 5", scatterWaits, scatterMsgs)
	c.JoinPolicy = plan.DistJoinPolicy{Force: plan.DistColocated}
	step("co-located join", "SELECT fact.k, fact.v, big.w FROM fact, big WHERE fact.k = big.b", scatterWaits, scatterMsgs)
	c.JoinPolicy = plan.DistJoinPolicy{}

	// The same inside BEGIN … COMMIT: the fragments did not end the legs, so
	// COMMIT releases all four — and, the transaction having only read,
	// waits for nothing.
	mustExec(t, s, "BEGIN")
	step("scatter aggregate in a transaction", "SELECT branch, count(*) FROM accounts GROUP BY branch",
		scatterWaits, map[string]int{"gtm_round": 1, "scan_frag": 2 * n})
	step("COMMIT of a read-only transaction", "COMMIT", map[string]int{}, map[string]int{"gtm_round": 1, "commit": n})

	// Single-shard read: two hops, two messages.
	step("single-shard read", "SELECT balance FROM accounts WHERE id = 7",
		map[string]int{"scan_frag_req": 1, "scan_frag_resp": 1},
		map[string]int{"scan_frag": 2})

	// Single-shard autocommit write: the write is the statement's one
	// message and its outcome — the node commits the leg it carried.
	step("single-shard update", "UPDATE accounts SET balance = balance + 1 WHERE id = 7",
		map[string]int{"write": 1}, map[string]int{"write": 1})

	// The same write inside BEGIN … COMMIT: the write did not end the leg,
	// so COMMIT's one commit is awaited, as before.
	mustExec(t, s, "BEGIN")
	step("single-shard update in a transaction", "UPDATE accounts SET balance = balance + 1 WHERE id = 7",
		map[string]int{"write": 1}, map[string]int{"write": 1})
	step("COMMIT of a single-shard writing transaction", "COMMIT",
		map[string]int{"commit": 1}, map[string]int{"commit": 1})

	// A 4-leg writing transaction: the scatter UPDATE dispatches its four
	// write legs as one wave; COMMIT waits once per 2PC phase and once for
	// the GTM's decision between them.
	mustExec(t, s, "BEGIN")
	step("scatter update", "UPDATE accounts SET balance = balance + 1",
		map[string]int{"gtm_round": 1, "write": 1},
		map[string]int{"gtm_round": 1, "write": n})
	step("COMMIT of a 4-leg writing transaction", "COMMIT",
		map[string]int{"prepare": 1, "gtm_round": 1, "commit": 1},
		map[string]int{"prepare": n, "gtm_round": 1, "commit": n})

	// ROLLBACK: one abort per leg and the GTM's record, none awaited.
	mustExec(t, s, "BEGIN")
	mustExec(t, s, "UPDATE accounts SET balance = balance + 1")
	step("ROLLBACK of a 4-leg writing transaction", "ROLLBACK", map[string]int{},
		map[string]int{"abort": n, "gtm_round": 1})

	// A replicated table is written on every node: one wave, then 2PC.
	step("insert into a replicated table", "INSERT INTO dimr VALUES (99, 'rep99')",
		map[string]int{"gtm_round": 2, "write": 1, "prepare": 1, "commit": 1},
		map[string]int{"gtm_round": 2, "write": n, "prepare": n, "commit": n})

	// A multi-row INSERT is one write wave whatever its row count — 64 rows
	// over four nodes, four rows onto four replicas — followed by the commit
	// path of an n-leg write.
	wideWriteWaits := map[string]int{"gtm_round": 2, "write": 1, "prepare": 1, "commit": 1}
	wideWriteMsgs := map[string]int{"gtm_round": 2, "write": n, "prepare": n, "commit": n}
	vals = vals[:0]
	for i := 64; i < 128; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d, 100)", i, i%10))
	}
	step("64-row insert", "INSERT INTO accounts VALUES "+strings.Join(vals, ", "), wideWriteWaits, wideWriteMsgs)
	step("4-row insert into a replicated table",
		"INSERT INTO dimr VALUES (100, 'a'), (101, 'b'), (102, 'c'), (103, 'd')", wideWriteWaits, wideWriteMsgs)
	// INSERT … SELECT: the source query's fragments, then the same one wave.
	step("insert from a scatter select", "INSERT INTO accounts SELECT id + 128, branch, balance FROM accounts",
		map[string]int{"gtm_round": 2, "scan_frag_req": n, "scan_frag_resp": n, "write": 1, "prepare": 1, "commit": 1},
		map[string]int{"gtm_round": 2, "scan_frag": 2 * n, "write": n, "prepare": n, "commit": n})

	// Broadcast join: the shuffle's shape with only the build side
	// exchanged. Every target is asked for its fragment and answers; every
	// build source that holds rows streams them to each of the other n-1
	// nodes in one batch and waits once, for its stream. Nothing is gathered
	// at the coordinator.
	senders := map[int]bool{}
	for d := 0; d < 10; d++ {
		senders[c.RouteKey(types.NewInt(int64(d)))] = true
	}
	c.JoinPolicy = plan.DistJoinPolicy{Force: plan.DistBroadcast}
	step("broadcast join", "SELECT fact.v, dim.name FROM fact, dim WHERE fact.d = dim.d",
		map[string]int{"gtm_round": 1, "scan_frag_req": n, "scan_frag_resp": n, "bcast_build": len(senders)},
		map[string]int{"gtm_round": 2, "scan_frag": 2 * n, "bcast_build": len(senders) * (n - 1)})

	// Shuffle join: 8 producers (4 sources × 2 sides), each sending several
	// batches to each of 3 other nodes — and each waiting once, for its
	// stream, however many batches that was.
	c.JoinPolicy = plan.DistJoinPolicy{Force: plan.DistShuffle}
	log.take()
	base := c.fab.Stats()
	mustExec(t, s, "SELECT sa.k, sb.k FROM sa, sb WHERE sa.j = sb.j")
	waits, msgs := log.take(), msgCounts(c.fab.Stats().Sub(base))
	batches := msgs["shuffle_part"]
	if batches < 2*2*n*(n-1) {
		t.Fatalf("shuffle join sent %d shuffle_part batches; the fixture needs at least 2 per stream and target (%d)", batches, 2*2*n*(n-1))
	}
	wantWaits := map[string]int{"gtm_round": 1, "scan_frag_req": n, "scan_frag_resp": n, "shuffle_part": 2 * n}
	if !maps.Equal(waits, wantWaits) {
		t.Errorf("shuffle join (%d batches) waited on %v, want %v", batches, waits, wantWaits)
	}
	delete(msgs, "shuffle_part")
	if !maps.Equal(msgs, scatterMsgs) {
		t.Errorf("shuffle join sent %v besides its batches, want %v", msgs, scatterMsgs)
	}
	if n := activeLegs(c); n != 0 {
		t.Errorf("shuffle join left %d active legs", n)
	}
}

// TestCommitWaveFaults drives the commit protocol through injected message
// loss: what a lost prepare, a lost commit confirmation, a lost read-only
// release and a one-shot write's lost write each leave behind.
func TestCommitWaveFaults(t *testing.T) {
	const rows = 40
	c := newCluster(t, 4, ModeGTMLite)
	s := setupAccounts(t, c, rows)
	// Two keys on different nodes, a on the lower-numbered one: its message
	// is the first of each wave.
	var a, b int64 = 0, 1
	for c.RouteKey(types.NewInt(b)) == c.RouteKey(types.NewInt(a)) {
		b++
	}
	if c.RouteKey(types.NewInt(a)) > c.RouteKey(types.NewInt(b)) {
		a, b = b, a
	}
	dnA := c.RouteKey(types.NewInt(a))
	balance := func(id int64) int64 {
		t.Helper()
		return mustExec(t, s, fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", id)).Rows[0][0].Int()
	}
	checkSum := func() {
		t.Helper()
		if got := mustExec(t, s, "SELECT sum(balance) FROM accounts").Rows[0][0].Int(); got != rows*100 {
			t.Fatalf("sum(balance) = %d, want %d", got, rows*100)
		}
	}
	transfer := func() error {
		t.Helper()
		mustExec(t, s, "BEGIN")
		mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance - 30 WHERE id = %d", a))
		mustExec(t, s, fmt.Sprintf("UPDATE accounts SET balance = balance + 30 WHERE id = %d", b))
		_, err := s.Exec("COMMIT")
		return err
	}
	dropNext := func(dn int, mt transport.MsgType) {
		c.Fabric().InjectFault(transport.CN(), transport.DN(dn), transport.Fault{
			Types: []transport.MsgType{mt}, Drop: true, Count: 1,
		})
	}

	// A lost prepare: the leg cannot vote, both legs abort, nothing is left
	// in doubt.
	dropNext(dnA, transport.Prepare)
	if err := transfer(); err == nil || !strings.Contains(err.Error(), "prepare failed") {
		t.Fatalf("COMMIT with a dropped prepare: %v, want a prepare failure", err)
	}
	if got := c.InDoubtCount(); got != 0 {
		t.Fatalf("a failed prepare left %d legs in doubt", got)
	}
	if balance(a) != 100 || balance(b) != 100 || activeLegs(c) != 0 {
		t.Fatalf("aborted transfer left balances %d/%d and %d active legs", balance(a), balance(b), activeLegs(c))
	}
	checkSum()

	// A lost commit confirmation, on the first leg of the wave: the decision
	// is durable, so the other leg commits and is visible; exactly the leg
	// that never heard stays in doubt until recovery finishes it.
	dropNext(dnA, transport.Commit)
	if err := transfer(); err == nil || !strings.Contains(err.Error(), "in doubt") {
		t.Fatalf("COMMIT with a dropped confirmation: %v, want the in-doubt error", err)
	}
	if got := c.InDoubtCount(); got != 1 {
		t.Fatalf("InDoubtCount = %d, want 1 (only the leg whose confirmation was lost)", got)
	}
	if got := balance(b); got != 130 {
		t.Fatalf("the leg whose confirmation arrived reads %d, want 130 (committed and visible)", got)
	}
	if committed, aborted := c.RecoverInDoubt(); committed != 1 || aborted != 0 {
		t.Fatalf("RecoverInDoubt = %d committed, %d aborted; want 1, 0", committed, aborted)
	}
	if c.InDoubtCount() != 0 || balance(a) != 70 {
		t.Fatalf("after recovery: %d in doubt, a = %d (want 0, 70)", c.InDoubtCount(), balance(a))
	}
	checkSum()

	// A lost read-only release: only an explicit transaction sends one (an
	// autocommit read's legs end with its fragments). The rows are already
	// delivered, so neither a scatter nor a single-shard SELECT nor the
	// COMMIT fails; the loss is counted and the leg ends all the same
	// (presumed abort).
	for _, q := range []string{
		"SELECT sum(balance) FROM accounts",
		fmt.Sprintf("SELECT balance FROM accounts WHERE id = %d", a),
	} {
		mustExec(t, s, "BEGIN")
		mustExec(t, s, q)
		base := c.Fabric().Stats()
		dropNext(dnA, transport.Commit)
		if _, err := s.Exec("COMMIT"); err != nil {
			t.Fatalf("%s: COMMIT with its release dropped: %v", q, err)
		}
		if d := c.Fabric().Stats().Sub(base).Get(transport.Commit); d.Dropped != 1 {
			t.Fatalf("%s: commit stats %+v, want the dropped release counted", q, d)
		}
		if activeLegs(c) != 0 || c.InDoubtCount() != 0 {
			t.Fatalf("%s: a lost release left %d active legs, %d in doubt", q, activeLegs(c), c.InDoubtCount())
		}
	}
	checkSum()

	// A one-shot write whose write message is lost: the message that would
	// have done the work and ended the leg never arrived, so the statement
	// fails, nothing commits, and the leg is rolled back — none stays
	// active, none in doubt.
	base := c.Fabric().Stats()
	dropNext(dnA, transport.Write)
	if _, err := s.Exec(fmt.Sprintf("UPDATE accounts SET balance = balance + 5 WHERE id = %d", a)); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("one-shot UPDATE with its write dropped: %v, want the loss", err)
	}
	if d := c.Fabric().Stats().Sub(base); d.Get(transport.Write).Dropped != 1 || !maps.Equal(msgCounts(d), map[string]int{"abort": 1}) {
		t.Fatalf("one-shot UPDATE delivered %v and lost %d writes, want the lost write and its leg's abort only", msgCounts(d), d.Get(transport.Write).Dropped)
	}
	if activeLegs(c) != 0 || c.InDoubtCount() != 0 {
		t.Fatalf("a lost one-shot write left %d active legs, %d in doubt", activeLegs(c), c.InDoubtCount())
	}
	if got := balance(a); got != 70 {
		t.Fatalf("a = %d after its lost write, want 70 (nothing committed)", got)
	}
	checkSum()
}

// TestFabricRecordsTransactionPaths checks the fabric's recording — the
// paths the Fig 3 simulator replays — against the hop log of
// TestCriticalPathHops: per statement sequence, the awaited entries are
// exactly the waits the log sees, by message type; every delivered message
// sits in exactly one entry; and what nobody waits for (a read-only
// release, the GTM told an outcome, an abort) is an entry of its own.
func TestFabricRecordsTransactionPaths(t *testing.T) {
	const n = 4
	c := newCluster(t, n, ModeGTMLite)
	log := tagFabric(c, n)
	s := setupAccounts(t, c, 40)
	// A Payment's three rows: warehouse, district and customer, on one node
	// (keys a) or with the customer on another (key b).
	var a []int64
	b := int64(-1)
	for k := int64(0); len(a) < 3 || b < 0; k++ {
		if c.RouteKey(types.NewInt(k)) == c.RouteKey(types.NewInt(0)) {
			a = append(a, k)
		} else if b < 0 {
			b = k
		}
	}
	payment := func(customer int64) []string {
		return []string{
			"BEGIN",
			fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", a[0]),
			fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", a[1]),
			fmt.Sprintf("UPDATE accounts SET balance = balance - 2 WHERE id = %d", customer),
			"COMMIT",
		}
	}

	c.fab.Record(true)
	defer c.fab.Record(false)
	// path runs sqls and returns the recording by message type: the awaited
	// entries named as the hop log names its waits, the unawaited ones by
	// their messages.
	path := func(name string, sqls ...string) (awaited, posted map[string]int) {
		t.Helper()
		log.take()
		c.fab.Recorded()
		base := c.fab.Stats()
		for _, sql := range sqls {
			mustExec(t, s, sql)
		}
		awaited, posted = map[string]int{}, map[string]int{}
		recorded := map[string]int{}
		for _, e := range c.fab.Recorded() {
			if len(e.Msgs) == 0 {
				t.Fatalf("%s: an entry with no message", name)
			}
			for _, m := range e.Msgs {
				recorded[m.Type.String()]++
				if !e.Awaited {
					posted[m.Type.String()]++
				}
			}
			if e.Awaited {
				awaited[waitName(e.Msgs[0])]++
			}
		}
		if waits := log.take(); !maps.Equal(awaited, waits) {
			t.Errorf("%s: recorded awaited entries %v, the hop log waited on %v", name, awaited, waits)
		}
		if sent := msgCounts(c.fab.Stats().Sub(base)); !maps.Equal(recorded, sent) {
			t.Errorf("%s: recorded messages %v, the fabric delivered %v", name, recorded, sent)
		}
		return awaited, posted
	}
	check := func(name string, sqls []string, wantAwaited, wantPosted map[string]int) {
		t.Helper()
		awaited, posted := path(name, sqls...)
		if !maps.Equal(awaited, wantAwaited) {
			t.Errorf("%s: awaited %v, want %v", name, awaited, wantAwaited)
		}
		if !maps.Equal(posted, wantPosted) {
			t.Errorf("%s: posted %v, want %v", name, posted, wantPosted)
		}
	}

	// TestCriticalPathHops' "single-shard update".
	check("single-shard autocommit update",
		[]string{fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", a[0])},
		map[string]int{"write": 1}, map[string]int{})
	// Three times its "single-shard update in a transaction", then its
	// "COMMIT of a single-shard writing transaction".
	check("single-shard Payment", payment(a[2]),
		map[string]int{"write": 3, "commit": 1}, map[string]int{})
	// The third update escalates ("scatter update": the GTM, then the
	// write), and COMMIT is the 2PC of "COMMIT of a 4-leg writing
	// transaction", its waves over two legs.
	check("2-shard Payment", payment(b),
		map[string]int{"write": 3, "gtm_round": 2, "prepare": 1, "commit": 1}, map[string]int{})

	// Read-only: the scatter's snapshot and fragments are awaited; the GTM's
	// end and, inside a transaction, COMMIT's release of every leg are not.
	scatter := "SELECT sum(balance) FROM accounts"
	scatterWaits := map[string]int{"gtm_round": 1, "scan_frag_req": n, "scan_frag_resp": n}
	check("autocommit scatter read", []string{scatter}, scatterWaits, map[string]int{"gtm_round": 1})
	check("read-only transaction", []string{"BEGIN", scatter, "COMMIT"}, scatterWaits,
		map[string]int{"gtm_round": 1, "commit": n})
	// ROLLBACK tells every leg and the GTM, waiting for none of them.
	check("rolled-back 2-shard transaction", []string{
		"BEGIN",
		fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", a[0]),
		fmt.Sprintf("UPDATE accounts SET balance = balance + 1 WHERE id = %d", b),
		"ROLLBACK",
	}, map[string]int{"write": 2, "gtm_round": 1}, map[string]int{"abort": 2, "gtm_round": 1})

	// Off, nothing is recorded.
	c.fab.Record(false)
	mustExec(t, s, scatter)
	if got := c.fab.Recorded(); got != nil {
		t.Errorf("recording off listed %d entries", len(got))
	}
}

// waitName names an awaited entry the way the hop log names its wait.
func waitName(m transport.Msg) string {
	if m.Type != transport.ScanFrag {
		return m.Type.String()
	}
	if m.From == transport.CN() {
		return "scan_frag_req"
	}
	return "scan_frag_resp"
}
