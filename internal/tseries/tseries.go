// Package tseries implements the multi-model database's time-series engine
// (paper §II-B): append-optimized chunked storage for high ingestion rates,
// time-range queries, windowed aggregation, continuous pre-aggregation
// (the rollups the paper proposes for device/edge pre-aggregation in
// §IV-B3) and retention-based expiry.
//
// internal/multimodel exposes a series to SQL as a virtual table
// (ExposeSeries), which the gtimeseries(...) table expression reads in time
// order.
package tseries

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// ChunkSize is the number of points per storage chunk.
const ChunkSize = 4096

// Point is one sample.
type Point struct {
	Ts    time.Time
	Value float64
	Tags  map[string]string
}

// AggKind selects a windowed aggregate.
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return "agg?"
	}
}

// Bucket is one aggregated window.
type Bucket struct {
	Start time.Time
	Count int64
	Sum   float64
	Min   float64
	Max   float64
}

// Value extracts the requested aggregate from the bucket.
func (b Bucket) Value(k AggKind) float64 {
	switch k {
	case AggCount:
		return float64(b.Count)
	case AggSum:
		return b.Sum
	case AggAvg:
		if b.Count == 0 {
			return 0
		}
		return b.Sum / float64(b.Count)
	case AggMin:
		return b.Min
	case AggMax:
		return b.Max
	default:
		return 0
	}
}

func (b *Bucket) add(v float64) {
	if b.Count == 0 {
		b.Min, b.Max = v, v
	} else {
		if v < b.Min {
			b.Min = v
		}
		if v > b.Max {
			b.Max = v
		}
	}
	b.Count++
	b.Sum += v
}

// chunk is a run of points, kept sorted lazily.
type chunk struct {
	points []Point
	sorted bool
}

func (c *chunk) sortIfNeeded() {
	if c.sorted {
		return
	}
	sort.SliceStable(c.points, func(i, j int) bool { return c.points[i].Ts.Before(c.points[j].Ts) })
	c.sorted = true
}

// series is one named time series.
type series struct {
	sealed []*chunk
	active *chunk
	// rollups maps bucket width -> bucketStartUnixNano -> accumulator.
	rollups map[time.Duration]map[int64]*Bucket
}

// Store is a collection of named time series.
type Store struct {
	mu     sync.RWMutex
	series map[string]*series
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{series: make(map[string]*series)} }

func (s *Store) get(name string) *series {
	ser, ok := s.series[name]
	if !ok {
		ser = &series{active: &chunk{sorted: true}, rollups: map[time.Duration]map[int64]*Bucket{}}
		s.series[name] = ser
	}
	return ser
}

// Append ingests one sample. Appends are O(1) amortized; out-of-order
// samples within a chunk are tolerated (sorted lazily at query time).
func (s *Store) Append(name string, ts time.Time, value float64, tags map[string]string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.get(name)
	c := ser.active
	if n := len(c.points); n > 0 && c.sorted && ts.Before(c.points[n-1].Ts) {
		c.sorted = false
	}
	c.points = append(c.points, Point{Ts: ts, Value: value, Tags: tags})
	if len(c.points) >= ChunkSize {
		c.sortIfNeeded()
		ser.sealed = append(ser.sealed, c)
		ser.active = &chunk{sorted: true}
	}
	// Maintain continuous rollups incrementally.
	for width, buckets := range ser.rollups {
		start := ts.Truncate(width).UnixNano()
		b, ok := buckets[start]
		if !ok {
			b = &Bucket{Start: time.Unix(0, start).UTC()}
			buckets[start] = b
		}
		b.add(value)
	}
}

// Len reports the number of stored points in a series.
func (s *Store) Len(name string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ser, ok := s.series[name]
	if !ok {
		return 0
	}
	n := len(ser.active.points)
	for _, c := range ser.sealed {
		n += len(c.points)
	}
	return n
}

// Names lists the stored series.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.series))
	for name := range s.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Range returns points with from <= ts < to in time order. A nil tags map
// matches everything; otherwise every listed tag must match.
func (s *Store) Range(name string, from, to time.Time, tags map[string]string) []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.series[name]
	if !ok {
		return nil
	}
	var out []Point
	scan := func(c *chunk) {
		c.sortIfNeeded()
		// Binary search the start.
		i := sort.Search(len(c.points), func(i int) bool { return !c.points[i].Ts.Before(from) })
		for ; i < len(c.points); i++ {
			p := c.points[i]
			if !p.Ts.Before(to) {
				return
			}
			if tagsMatch(p.Tags, tags) {
				out = append(out, p)
			}
		}
	}
	for _, c := range ser.sealed {
		scan(c)
	}
	scan(ser.active)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts.Before(out[j].Ts) })
	return out
}

func tagsMatch(have, want map[string]string) bool {
	for k, v := range want {
		if have[k] != v {
			return false
		}
	}
	return true
}

// Window aggregates [from, to) into fixed-width buckets on the fly. When a
// continuous rollup of exactly this width exists, it is served from the
// pre-aggregated state instead (the fast path the paper motivates).
func (s *Store) Window(name string, from, to time.Time, width time.Duration, tags map[string]string) []Bucket {
	if width <= 0 {
		return nil
	}
	// Rollup fast path (tag filters require the raw points).
	if tags == nil {
		s.mu.RLock()
		ser, ok := s.series[name]
		if ok {
			if buckets, ok2 := ser.rollups[width]; ok2 {
				out := collectRollup(buckets, from, to)
				s.mu.RUnlock()
				return out
			}
		}
		s.mu.RUnlock()
	}
	points := s.Range(name, from, to, tags)
	var out []Bucket
	var cur *Bucket
	for _, p := range points {
		start := p.Ts.Truncate(width)
		if cur == nil || !cur.Start.Equal(start) {
			out = append(out, Bucket{Start: start})
			cur = &out[len(out)-1]
		}
		cur.add(p.Value)
	}
	return out
}

func collectRollup(buckets map[int64]*Bucket, from, to time.Time) []Bucket {
	var out []Bucket
	for start, b := range buckets {
		t := time.Unix(0, start)
		if t.Before(from) || !t.Before(to) {
			continue
		}
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// EnableRollup registers a continuous pre-aggregation of the given bucket
// width; existing points are back-filled and future appends maintain it
// incrementally.
func (s *Store) EnableRollup(name string, width time.Duration) error {
	if width <= 0 {
		return fmt.Errorf("tseries: rollup width must be positive")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ser := s.get(name)
	if _, exists := ser.rollups[width]; exists {
		return nil
	}
	buckets := map[int64]*Bucket{}
	fill := func(c *chunk) {
		for _, p := range c.points {
			start := p.Ts.Truncate(width).UnixNano()
			b, ok := buckets[start]
			if !ok {
				b = &Bucket{Start: time.Unix(0, start).UTC()}
				buckets[start] = b
			}
			b.add(p.Value)
		}
	}
	for _, c := range ser.sealed {
		fill(c)
	}
	fill(ser.active)
	ser.rollups[width] = buckets
	return nil
}

// Expire drops points older than cutoff (retention); rollup buckets whose
// window ended before cutoff are dropped with them. Returns the number of
// points removed.
func (s *Store) Expire(name string, cutoff time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.series[name]
	if !ok {
		return 0
	}
	removed := 0
	trim := func(c *chunk) {
		c.sortIfNeeded()
		i := sort.Search(len(c.points), func(i int) bool { return !c.points[i].Ts.Before(cutoff) })
		removed += i
		c.points = c.points[i:]
	}
	var sealed []*chunk
	for _, c := range ser.sealed {
		trim(c)
		if len(c.points) > 0 {
			sealed = append(sealed, c)
		}
	}
	ser.sealed = sealed
	trim(ser.active)
	for width, buckets := range ser.rollups {
		for start := range buckets {
			if time.Unix(0, start).Add(width).Before(cutoff) {
				delete(buckets, start)
			}
		}
	}
	return removed
}

// Latest returns the most recent point of a series.
func (s *Store) Latest(name string) (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.series[name]
	if !ok {
		return Point{}, false
	}
	best := Point{Ts: time.Unix(0, math.MinInt64)}
	found := false
	consider := func(c *chunk) {
		for _, p := range c.points {
			if !found || p.Ts.After(best.Ts) {
				best = p
				found = true
			}
		}
	}
	for _, c := range ser.sealed {
		consider(c)
	}
	consider(ser.active)
	return best, found
}
