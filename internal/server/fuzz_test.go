package server

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/sqlx"
	"repro/internal/types"
)

// FuzzNormalizeSQL is the differential check behind the statement cache:
// a text and its cache key must lex alike — both fail, or both yield the
// same token kinds with the same text up to letter case — so no two
// statements the parser tells apart can share a key.
func FuzzNormalizeSQL(f *testing.F) {
	for _, seed := range []string{
		"SELECT 1 -- c\n, 2",
		"SELECT 1 -- c , 2",
		"select\t*\n  from   t",
		"SELECT 'It''s UPPER  case'",
		`SELECT "Col  A", "--x" FROM T /* open`,
		"SELECT a/**/b, 1e--5, 1E+5, x- -y, 'unterminated",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		norm := NormalizeSQL(sql)
		want, wantErr := sqlx.Tokenize(sql)
		got, gotErr := sqlx.Tokenize(norm)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%q lexes with error %v, its key %q with %v", sql, wantErr, norm, gotErr)
		}
		if wantErr != nil {
			return
		}
		if len(got) != len(want) {
			t.Fatalf("%q lexes to %d tokens, its key %q to %d", sql, len(want), norm, len(got))
		}
		for i := range want {
			if got[i].Kind != want[i].Kind || !strings.EqualFold(got[i].Text, want[i].Text) {
				t.Fatalf("token %d of %q is %v, of its key %q is %v", i, sql, want[i], norm, got[i])
			}
		}
		if again := NormalizeSQL(norm); again != norm {
			t.Fatalf("key %q of %q normalizes again to %q", norm, sql, again)
		}
	})
}

// FuzzDecodeFrames feeds arbitrary bytes to both frame decoders: neither
// may panic, hang or allocate beyond a small multiple of the frame, and
// whatever decodes must survive an encode → decode round trip unchanged.
func FuzzDecodeFrames(f *testing.F) {
	bomb := EncodeResponse(&Response{})
	bomb = appendU32(appendU32(bomb[:len(bomb)-4], 1), 0x7fffffff)
	f.Add(bomb)
	f.Add(EncodeRequest(&Request{Op: OpExec, Priority: 2, Session: 7, TimeoutMillis: 50, SQL: "SELECT 1"}))
	f.Add(EncodeResponse(&Response{
		Status: StatusOK, Session: 7, CacheHit: true, RowsAffected: 3,
		Columns: []string{"a", "b"},
		Rows: []types.Row{
			{types.NewInt(1), types.NewString("x"), types.Null},
			{types.NewFloat(2.5), types.NewBytes([]byte{0, 1}), types.NewBool(true), types.NewTime(time.Unix(1, 2).UTC())},
		},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, qErr := DecodeRequest(b)
		p, pErr := DecodeResponse(b)
		runtime.ReadMemStats(&after)
		// A datum decodes to 64 bytes from as little as one; leave room for
		// row headers and unrelated runtime allocation.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(256*len(b)+1<<16); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(b), grew, limit)
		}
		if qErr == nil {
			enc := EncodeRequest(q)
			if again, err := DecodeRequest(enc); err != nil || *again != *q {
				t.Fatalf("request %+v re-decodes to %+v, %v", q, again, err)
			}
		}
		if pErr == nil {
			enc := EncodeResponse(p)
			again, err := DecodeResponse(enc)
			if err != nil || !bytes.Equal(EncodeResponse(again), enc) {
				t.Fatalf("response %+v does not round-trip: %v", p, err)
			}
		}
	})
}
