package cluster

import (
	"fmt"
	"strings"
	"testing"
)

// insertRowsCeiling is the most allocations TestInsertAllocationCeiling lets
// one inserted row of a 500-row literal INSERT cost, about a tenth above
// what the code reaches: the row's TEXT value, copied out of the statement
// text, and a share of the blocks everything else comes in.
const insertRowsCeiling = 1.3

// TestInsertAllocationCeiling pins what a multi-row literal INSERT, the
// statement every bulk load is made of, allocates per row it inserts through
// Session.Exec — lexing, parsing, compiling, routing and writing on a
// columnar and on a row table. A literal row is data: no token list, no
// compiled expression per value, and AST nodes and rows carved from blocks.
func TestInsertAllocationCeiling(t *testing.T) {
	const rows = 500
	for _, storage := range []string{"COLUMN", "ROW"} {
		c := newCluster(t, 4, ModeGTMLite)
		s := c.NewSession()
		mustExec(t, s, "CREATE TABLE f (k BIGINT, g BIGINT, v TEXT) DISTRIBUTE BY HASH(k) USING "+storage)
		var stmts []string
		for b := 0; b < 12; b++ {
			var sb strings.Builder
			sb.WriteString("INSERT INTO f VALUES ")
			for i := 0; i < rows; i++ {
				if i > 0 {
					sb.WriteByte(',')
				}
				k := b*rows + i
				fmt.Fprintf(&sb, "(%d, %d, 'v%d')", k, k%97, k%13)
			}
			stmts = append(stmts, sb.String())
		}
		next := 0
		run := func() {
			if _, err := s.Exec(stmts[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		run() // warm-up
		got := testing.AllocsPerRun(len(stmts)-2, run) / rows
		t.Logf("%s: %.2f allocations per inserted row (ceiling %.1f)", storage, got, insertRowsCeiling)
		if got > insertRowsCeiling {
			t.Errorf("%s: a 500-row literal INSERT allocates %.2f times per row, ceiling %.1f", storage, got, insertRowsCeiling)
		}
	}
}
