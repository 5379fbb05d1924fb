// Analytical-shape check for HTAP routing (paper §II-III): decide from the
// AST alone whether a SELECT is the kind of statement the columnar
// analytical replicas should serve. The routing layer applies this only to
// scatter statements — point reads are already excluded by single-shard
// routing, and DML / read-own-writes sessions are excluded by the session's
// transaction state.

package plan

import "repro/internal/sqlx"

// AnalyticalShape reports whether a columnar replica may serve sel: it
// reads at least one table and every table it reads — in FROM, joins,
// derived tables, gtimeseries(...) inner queries and set-operation arms — is
// a stored one. A statement reading no table never touches the row
// primaries in the first place, and the tables a ggraph or gspatial call
// reads are known only once the planner has compiled it, so it reads the
// primaries.
func AnalyticalShape(sel *sqlx.Select) bool {
	return sel != nil && len(sel.From) > 0 && storedOnly(sel)
}

// storedOnly reports whether q's FROM list and set-operation arms reference
// stored tables only.
func storedOnly(q *sqlx.Select) bool {
	if q == nil {
		return true
	}
	for _, ref := range q.From {
		if !storedRef(ref) {
			return false
		}
	}
	for _, arm := range q.SetOps {
		if !storedOnly(arm.Query) {
			return false
		}
	}
	return true
}

func storedRef(ref sqlx.TableRef) bool {
	switch x := ref.(type) {
	case *sqlx.BaseTable:
		return true
	case *sqlx.JoinRef:
		return storedRef(x.Left) && storedRef(x.Right)
	case *sqlx.SubqueryRef:
		return storedOnly(x.Query)
	case *sqlx.TableFunc:
		return x.Query != nil && storedOnly(x.Query) // gtimeseries
	default:
		return false
	}
}
