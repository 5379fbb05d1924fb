// Package planstore implements the learning-based optimizer's statistics
// store (paper §II-C, Fig 5): the producer selectively captures execution
// steps whose actual row count diverges from the optimizer's estimate, and
// the consumer serves those actuals back to the planner for subsequent
// same-or-similar queries.
//
// Keys are MD5 hashes of canonical *logical* step definitions (see
// internal/plan.ScanStep et al.), so the store is insensitive to physical
// operator choice, join order and predicate order. The store behaves as a
// bounded cache with LRU eviction.
package planstore

import (
	"sort"
	"sync"

	"repro/internal/exec"
	"repro/internal/plan"
)

// DefaultCaptureRatio is the minimum estimate/actual divergence (as a
// ratio >= 1) for a step to be captured. The paper: "the executor captures
// only those steps that have a big differential between actual and
// estimated row counts."
const DefaultCaptureRatio = 2.0

// DefaultCapacity bounds the number of stored steps.
const DefaultCapacity = 4096

// Entry is one captured step.
type Entry struct {
	Hash     string
	StepText string
	// Estimated is the optimizer's estimate at capture time; Actual is the
	// executed row count the consumer will serve.
	Estimated float64
	Actual    float64
	// Hits counts consumer lookups; Updates counts producer refreshes.
	Hits    int64
	Updates int64

	lruSeq uint64
}

// Store is the plan store. Safe for concurrent use.
type Store struct {
	// CaptureRatio overrides DefaultCaptureRatio when > 0.
	CaptureRatio float64
	// Capacity overrides DefaultCapacity when > 0.
	Capacity int

	mu      sync.Mutex
	entries map[string]*Entry
	seq     uint64

	lookups int64
	misses  int64
}

// New returns an empty store with default settings.
func New() *Store { return &Store{entries: make(map[string]*Entry)} }

func (s *Store) ratio() float64 {
	if s.CaptureRatio > 0 {
		return s.CaptureRatio
	}
	return DefaultCaptureRatio
}

func (s *Store) capacity() int {
	if s.Capacity > 0 {
		return s.Capacity
	}
	return DefaultCapacity
}

// LookupStep implements plan.Estimator: it returns the learned cardinality
// for a canonical step definition.
func (s *Store) LookupStep(stepText string) (float64, bool) {
	h := plan.StepHash(stepText)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lookups++
	e, ok := s.entries[h]
	if !ok {
		s.misses++
		return 0, false
	}
	e.Hits++
	s.seq++
	e.lruSeq = s.seq
	return e.Actual, true
}

// Capture is the producer: it records every instrumented step whose
// estimate diverges from the actual row count by at least the capture
// ratio, and refreshes steps already present (actuals drift as data
// changes). A step whose count was cut short (exec.Counted.Cut) is skipped.
func (s *Store) Capture(steps []*exec.Counted) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	captured := 0
	for _, c := range steps {
		if c.StepText == "" || c.Cut.Load() {
			continue
		}
		actual := float64(c.ActualRows)
		h := plan.StepHash(c.StepText)
		if e, ok := s.entries[h]; ok {
			// Refresh: keep the latest truth.
			if e.Actual != actual {
				e.Actual = actual
				e.Updates++
			}
			s.seq++
			e.lruSeq = s.seq
			continue
		}
		if !diverges(c.EstimatedRows, actual, s.ratio()) {
			continue
		}
		s.evictIfFullLocked()
		s.seq++
		s.entries[h] = &Entry{
			Hash:      h,
			StepText:  c.StepText,
			Estimated: c.EstimatedRows,
			Actual:    actual,
			Updates:   1,
			lruSeq:    s.seq,
		}
		captured++
	}
	return captured
}

// diverges reports whether est and act differ by at least ratio in either
// direction. Zero-vs-nonzero always diverges.
func diverges(est, act, ratio float64) bool {
	if est <= 0 && act <= 0 {
		return false
	}
	if est <= 0 || act <= 0 {
		return true
	}
	q := est / act
	if q < 1 {
		q = 1 / q
	}
	return q >= ratio
}

// QError is the standard cardinality-estimation quality metric:
// max(est/act, act/est), with the convention that est and act are clamped
// to at least 1.
func QError(est, act float64) float64 {
	if est < 1 {
		est = 1
	}
	if act < 1 {
		act = 1
	}
	if est > act {
		return est / act
	}
	return act / est
}

func (s *Store) evictIfFullLocked() {
	if len(s.entries) < s.capacity() {
		return
	}
	// Evict the least recently used entry.
	var victim *Entry
	for _, e := range s.entries {
		if victim == nil || e.lruSeq < victim.lruSeq {
			victim = e
		}
	}
	if victim != nil {
		delete(s.entries, victim.Hash)
	}
}

// Len reports the number of stored steps.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats summarizes consumer traffic.
type Stats struct {
	Lookups int64
	Misses  int64
	Entries int
}

// Stats returns cumulative counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{Lookups: s.lookups, Misses: s.misses, Entries: len(s.entries)}
}

// Entries returns a snapshot of all entries sorted by step text (for the
// Table I display and tests).
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StepText < out[j].StepText })
	return out
}

// Reset clears the store.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[string]*Entry)
	s.lookups, s.misses, s.seq = 0, 0, 0
}
