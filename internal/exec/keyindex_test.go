package exec

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"repro/internal/types"
)

// keyIndex: distinct byte keys numbered in first-seen order, whatever their
// hashes do, and a table over it that allocates as it doubles, not per key.

func TestKeyIndexNumbersKeysInFirstSeenOrder(t *testing.T) {
	var x keyIndex
	if _, ok := x.find([]byte("absent")); ok || x.len() != 0 {
		t.Fatal("the zero index is not empty")
	}
	const n = 5000 // far past the first 16 slots: several doublings
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%d", i*i)) }
	for i := 0; i < n; i++ {
		if e, isNew := x.put(key(i)); e != i || !isNew {
			t.Fatalf("put of new key %d = entry %d, new %v", i, e, isNew)
		}
		if i%7 == 0 { // a key seen before keeps its number, however far the table has grown
			if e, isNew := x.put(key(i / 2)); e != i/2 || isNew {
				t.Fatalf("put of old key %d = entry %d, new %v", i/2, e, isNew)
			}
		}
	}
	if x.len() != n || 2*x.len() > len(x.slots) {
		t.Fatalf("%d entries in %d slots", x.len(), len(x.slots))
	}
	for i := 0; i < n; i++ {
		if e, ok := x.find(key(i)); !ok || e != i || string(x.key(e)) != string(key(i)) {
			t.Fatalf("find(key %d) = %d, %v holding %q", i, e, ok, x.key(e))
		}
	}
	if _, ok := x.find([]byte("key-")); ok {
		t.Error("found a prefix of a key")
	}
}

// TestKeyIndexEqualHashes: keys whose hashes collide entirely are told apart
// by their bytes, through growth too.
func TestKeyIndexEqualHashes(t *testing.T) {
	var x keyIndex
	const h = 0xfeedface
	for i := 0; i < 100; i++ {
		key := binary.BigEndian.AppendUint32(nil, uint32(i))
		if e, found := x.lookup(key, h, true); e != i || found {
			t.Fatalf("insert %d under one hash = entry %d, found %v", i, e, found)
		}
	}
	for i := 0; i < 100; i++ {
		key := binary.BigEndian.AppendUint32(nil, uint32(i))
		if e, found := x.lookup(key, h, false); e != i || !found {
			t.Fatalf("lookup %d under one hash = entry %d, found %v", i, e, found)
		}
	}
	if _, found := x.lookup([]byte("other"), h, false); found {
		t.Error("an absent key with the shared hash was found")
	}
}

// TestKeyIndexEmptyKey: the empty key is a key like any other — it is the one
// every build row of a nested-loop join shares.
func TestKeyIndexEmptyKey(t *testing.T) {
	var x keyIndex
	x.put([]byte("a"))
	if e, isNew := x.put(nil); e != 1 || !isNew {
		t.Fatalf("first empty key = entry %d, new %v", e, isNew)
	}
	if e, isNew := x.put([]byte{}); e != 1 || isNew {
		t.Fatalf("second empty key = entry %d, new %v", e, isNew)
	}
	if e, ok := x.find(nil); !ok || e != 1 || len(x.key(e)) != 0 {
		t.Fatalf("find(empty) = %d, %v", e, ok)
	}

	ctx := NewCtx(time.Unix(0, 0))
	table := NewJoinTable(nil)
	for i := int64(0); i < 3; i++ {
		if err := table.Add(ctx, intRow(i)); err != nil {
			t.Fatal(err)
		}
	}
	probe := table.Probe(InnerJoin, nil, nil, 1)
	if err := probe.Start(ctx, intRow(9)); err != nil {
		t.Fatal(err)
	}
	for want := int64(0); want < 3; want++ { // every build row, in arrival order
		row, ok, err := probe.Next(ctx)
		if err != nil || !ok || row[0].Int() != 9 || row[1].Int() != want {
			t.Fatalf("joined row %v, %v, %v; want (9, %d)", row, ok, err, want)
		}
	}
	if _, ok, _ := probe.Next(ctx); ok {
		t.Error("a fourth joined row")
	}
}

// buildAllocs returns the objects allocated building a table over n distinct keys.
func buildAllocs(n int, build func(rows []types.Row)) float64 {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = intRow(int64(i)*2654435761, int64(i))
	}
	return testing.AllocsPerRun(3, func() { build(rows) })
}

// allocCeilingOK: 16× the keys may cost a few more doublings of each array,
// never an object per key.
func allocCeilingOK(t *testing.T, what string, small, large float64, n int) {
	t.Helper()
	t.Logf("%s: %.0f objects for %d keys, %.0f for %d", what, small, n, large, 16*n)
	if large-small > 64 || large > float64(n)/4 {
		t.Errorf("%s: %.0f objects for %d distinct keys, %.0f for %d: it allocates per key", what, small, n, large, 16*n)
	}
}

func TestJoinTableAllocationCeiling(t *testing.T) {
	ctx := NewCtx(time.Unix(0, 0))
	build := func(rows []types.Row) {
		table := NewJoinTable([]Expr{col(0)})
		for _, r := range rows {
			if err := table.Add(ctx, r); err != nil {
				t.Fatal(err)
			}
		}
		if table.index.len() != len(rows) {
			t.Fatalf("%d keys for %d rows", table.index.len(), len(rows))
		}
	}
	const n = 2048
	allocCeilingOK(t, "JoinTable.Add", buildAllocs(n, build), buildAllocs(16*n, build), n)
}

func TestAggTableAllocationCeiling(t *testing.T) {
	ctx := NewCtx(time.Unix(0, 0))
	specs := []AggSpec{{Kind: AggCountStar}, {Kind: AggSum, Arg: col(1)}, {Kind: AggMax, Arg: col(1)}}
	pushed := func(rows []types.Row) {
		table := NewAggTable([]Expr{col(0)}, specs)
		for _, r := range rows {
			if err := table.Push(ctx, r); err != nil {
				t.Fatal(err)
			}
		}
		if table.index.len() != len(rows) {
			t.Fatalf("%d groups for %d rows", table.index.len(), len(rows))
		}
	}
	// The batch feeder's way in: every row's group numbered by its encoded
	// key, then each aggregate folded over the whole batch.
	var key []byte
	folded := func(rows []types.Row) {
		table := NewAggTable([]Expr{col(0)}, specs)
		sel, groups, vals := make([]bool, len(rows)), make([]int32, len(rows)), make([]int64, len(rows))
		for i, r := range rows {
			key = types.AppendKey(key[:0], r[0])
			sel[i], vals[i] = true, r[1].Int()
			groups[i] = int32(table.GroupOf(key, func(vals types.Row) { vals[0] = r[0] }))
		}
		table.FoldRows(0, sel, groups)
		for a := 1; a <= 2; a++ {
			if _, err := table.FoldInts(a, sel, groups, vals, nil); err != nil {
				t.Fatal(err)
			}
		}
		if got, err := table.Rows(); err != nil || len(got) != len(rows) || got[len(got)-1][3].Int() != int64(len(rows)-1) {
			t.Fatalf("%d groups for %d rows", len(got), len(rows))
		}
	}
	const n = 2048
	allocCeilingOK(t, "AggTable.Push", buildAllocs(n, pushed), buildAllocs(16*n, pushed), n)
	allocCeilingOK(t, "AggTable.GroupOf+Fold", buildAllocs(n, folded), buildAllocs(16*n, folded), n)
}
