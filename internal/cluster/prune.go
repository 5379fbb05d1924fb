package cluster

import (
	"repro/internal/colstore"
	"repro/internal/types"
)

// Segment pruning: the first step of a fragment program's select stage.
// Every term of the pushed scan predicate (exec.SplitTerms) whose values
// resolve for the run becomes a zone-map check that skips sealed column
// segments whose recorded min/max exclude every possible match. Pruning is
// purely a skip hint — the program still evaluates the whole predicate on
// every row it reads, so an over-permissive keep costs time, never
// correctness, and the check errs on the side of keeping whenever a
// comparison is uncertain.

// zoneCheck reports whether a segment may contain matching rows.
type zoneCheck func(*colstore.Segment) bool

// zoneCheckOf builds the zone check of a term over column col with operator
// op under its resolved values (exec.Term.Resolve: none NULL, all of a kind
// the column's values compare with).
func zoneCheckOf(col int, op string, vals []types.Datum) zoneCheck {
	v := vals[0]
	switch op {
	case "IN":
		return func(s *colstore.Segment) bool {
			min, max, ok := s.ColRange(col)
			if !ok {
				return true
			}
			for _, v := range vals {
				if !cmpLT(v, min) && !cmpLT(max, v) {
					return true // v falls inside [min, max]
				}
			}
			return false
		}
	case "=":
		return func(s *colstore.Segment) bool {
			min, max, ok := s.ColRange(col)
			return !ok || (!cmpLT(v, min) && !cmpLT(max, v))
		}
	case "<":
		return func(s *colstore.Segment) bool {
			min, _, ok := s.ColRange(col)
			return !ok || cmpLT(min, v)
		}
	case "<=":
		return func(s *colstore.Segment) bool {
			min, _, ok := s.ColRange(col)
			return !ok || !cmpLT(v, min)
		}
	case ">":
		return func(s *colstore.Segment) bool {
			_, max, ok := s.ColRange(col)
			return !ok || cmpLT(v, max)
		}
	case ">=":
		return func(s *colstore.Segment) bool {
			_, max, ok := s.ColRange(col)
			return !ok || !cmpLT(max, v)
		}
	default: // "<>"
		// Prunable only when the segment is a single run of exactly v.
		return func(s *colstore.Segment) bool {
			min, max, ok := s.ColRange(col)
			if !ok {
				return true
			}
			eqMin, err1 := types.Compare(min, v)
			eqMax, err2 := types.Compare(max, v)
			return err1 != nil || err2 != nil || eqMin != 0 || eqMax != 0
		}
	}
}

// cmpLT reports a < b. Incomparable kinds read as false, which keeps a
// segment in some checks and drops it in others: only values that compare
// with the column's (exec.Term.Resolve) may reach a zone check.
func cmpLT(a, b types.Datum) bool {
	c, err := types.Compare(a, b)
	return err == nil && c < 0
}
