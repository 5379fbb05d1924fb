package main

import (
	"math"
	"sort"
)

// minP99Samples is the fewest timings a p99 is reported from: below it
// fewer than ten samples lie beyond the percentile.
const minP99Samples = 1000

// percentile returns the pct-th percentile (nearest rank) of samples and
// whether it is supported: a median needs one sample, a p99 needs
// minP99Samples.
func percentile(samples []float64, pct float64) (float64, bool) {
	n := len(samples)
	if n == 0 || (pct > 50 && n < minP99Samples) {
		return 0, false
	}
	samples = sorted(samples)
	rank := int(math.Ceil(pct / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1], true
}

// median returns the middle value of samples (mean of the middle two when
// the count is even), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	samples = sorted(samples)
	if n%2 == 1 {
		return samples[n/2]
	}
	return (samples[n/2-1] + samples[n/2]) / 2
}

func sorted(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// selfTimes splits one class's latency over the layers of the statement
// path by subtracting medians taken at the three entry depths.
type selfTimes struct {
	driver, server, parse, plan, cluster float64
}

// subtractDepths derives self times from the median latency of an
// operation entered through the driver (full), through Server.Handle
// (handle) and through Session.ExecStmt (execStmt), the median parse time
// that Handle pays on a statement-cache miss (parseOnMiss) and the median
// planning time inside ExecStmt (plan). A difference that comes out
// negative, because the medians are of different operations, counts as 0.
func subtractDepths(full, handle, execStmt, parseOnMiss, plan float64) selfTimes {
	pos := func(v float64) float64 { return math.Max(v, 0) }
	return selfTimes{
		driver:  pos(full - handle),
		server:  pos(handle - execStmt - parseOnMiss),
		parse:   parseOnMiss,
		plan:    plan,
		cluster: pos(execStmt - plan),
	}
}

func (s selfTimes) sum() float64 { return s.driver + s.server + s.parse + s.plan + s.cluster }
