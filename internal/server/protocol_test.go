package server

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"repro/internal/types"
)

// TestEncodeResponseSizedOnce: a reply is encoded into one buffer made at
// exactly its length, whatever its rows and kinds, and an error reply too;
// the bytes decode to the same reply.
func TestEncodeResponseSizedOnce(t *testing.T) {
	kinds := types.Row{
		types.Null, types.NewBool(true), types.NewInt(-7), types.NewFloat(2.5),
		types.NewTime(time.Unix(1, 2)), types.NewString("text"), types.NewString(""), types.NewBytes([]byte{0, 0xff}),
	}
	many := make([]types.Row, 10000)
	for i := range many {
		many[i] = types.Row{types.NewInt(int64(i)), types.NewString("name"), types.NewFloat(float64(i) / 3)}
	}
	for name, p := range map[string]*Response{
		"0 rows":      {Status: StatusOK, Session: 3, Columns: []string{"a"}},
		"1 row":       {Status: StatusOK, Columns: []string{"a", "b", "c"}, Rows: many[:1]},
		"10000 rows":  {Status: StatusOK, CacheHit: true, InTxn: true, Columns: []string{"a", "b", "c"}, Rows: many},
		"every kind":  {Status: StatusOK, RowsAffected: 1, Columns: []string{"n", "b", "i", "f", "t", "s", "e", "y"}, Rows: []types.Row{kinds}},
		"error reply": {Status: StatusError, Err: "sqlx: syntax error at line 1"},
	} {
		var b []byte
		if a := testing.AllocsPerRun(10, func() { b = EncodeResponse(p) }); a != 1 || len(b) != cap(b) {
			t.Errorf("%s: %v allocations, %d bytes in a buffer of %d; want 1, exactly sized", name, a, len(b), cap(b))
		}
		q, err := DecodeResponse(b)
		if err != nil || !bytes.Equal(EncodeResponse(q), b) {
			t.Errorf("%s: does not round-trip: %v", name, err)
		}
	}
}

// TestDecodeResponseAllocatesPerFrame: the rows of a reply are carved out of
// one datum slab, so decoding 10 000 rows of fixed-width datums allocates a
// few objects, not one per row.
func TestDecodeResponseAllocatesPerFrame(t *testing.T) {
	rows := make([]types.Row, 10000)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i)), types.Null, types.NewBool(i%2 == 0)}
	}
	frame := EncodeResponse(&Response{Status: StatusOK, Columns: []string{"i", "f", "n", "b"}, Rows: rows})
	var p *Response
	a := testing.AllocsPerRun(10, func() {
		var err error
		if p, err = DecodeResponse(frame); err != nil {
			t.Fatal(err)
		}
	})
	// The response, its column slice and names, the row slice and the slab.
	if a > 8 {
		t.Errorf("decoding %d rows allocates %v objects, want at most 8", len(rows), a)
	}
	if len(p.Rows) != len(rows) || cap(p.Rows[0]) != len(rows[0]) || p.Rows[9999][0].Int() != 9999 {
		t.Fatalf("decoded %d rows, the first of cap %d", len(p.Rows), cap(p.Rows[0]))
	}
}

// wideClaimFrame is a reply of a few hundred bytes that claims as many rows,
// each as wide, as its counts can: every row header is 4 bytes and every
// datum at least its kind byte, so larger claims (2^20 rows of 2^20 datums,
// say) are refused before anything is allocated. Its first row is nulls
// filling the rest of the frame; the second row is missing.
func wideClaimFrame() []byte {
	const nulls = 300
	frame := EncodeResponse(&Response{})
	frame = frame[:len(frame)-4]
	frame = types.AppendU32(frame, (4+nulls)/4) // nrows: all the rest can hold
	frame = types.AppendU32(frame, nulls)       // the first row's width
	return append(frame, make([]byte, nulls)...)
}

// TestDecodeResponseBoundedByFrame: decoding a frame that claims many wide
// rows allocates at most 64 bytes per frame byte, plus 4 KB. A slab sized
// by the claims alone (76 rows of 300 datums) would take 730 KB here.
func TestDecodeResponseBoundedByFrame(t *testing.T) {
	frame := wideClaimFrame()
	grew := ^uint64(0)
	for try := 0; try < 3; try++ { // another goroutine's allocation only adds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeResponse(frame)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a frame missing its second row decoded")
		}
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if limit := uint64(64*len(frame) + 4<<10); grew > limit {
		t.Errorf("decoding a %d-byte frame allocated %d bytes, limit %d", len(frame), grew, limit)
	}
}
