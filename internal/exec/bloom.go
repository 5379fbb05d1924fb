package exec

import (
	"sync/atomic"

	"repro/internal/types"
)

// Bloom is a fixed-size bloom filter over join-key datums, used for
// sideways information passing: HashJoin builds it from the (small) build
// side's keys and NDP scans probe it DN-side so non-matching probe rows
// never cross the fabric. Keys are hashed by the hash join's own key
// encoding (types.AppendKey: equal bytes iff Compare == 0), so a datum the
// filter rejects provably cannot match any build row.
type Bloom struct {
	bits []uint64
	m    uint64 // bit count
	k    int    // hash functions
}

// bloomBitsPerKey sizes the filter: 10 bits/key with k=4 gives a ~1-2%
// false-positive rate, plenty for a semi-join hint (false positives only
// cost shipping a row the join drops anyway).
const bloomBitsPerKey = 10

// NewBloom returns a filter sized for n keys (minimum 512 bits so tiny
// build sides still get a usable filter).
func NewBloom(n int) *Bloom {
	m := uint64(n * bloomBitsPerKey)
	if m < 512 {
		m = 512
	}
	m = (m + 63) &^ 63 // round up to whole words
	return &Bloom{bits: make([]uint64, m/64), m: m, k: 4}
}

// hashes derives the double-hashing pair (h1, h2) for a datum: FNV-1a over
// its types.AppendKey bytes, the encoding JoinTable's equality is.
func (b *Bloom) hashes(v types.Datum) (uint64, uint64) {
	var buf [32]byte
	h1 := uint64(14695981039346656037)
	for _, x := range types.AppendKey(buf[:0], v) {
		h1 = (h1 ^ uint64(x)) * 1099511628211
	}
	h2 := h1>>33 | h1<<31 | 1 // odd, so successive probes cover the bit space
	return h1, h2
}

// Add inserts one key datum.
func (b *Bloom) Add(v types.Datum) {
	h1, h2 := b.hashes(v)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.m
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

// MayContain reports whether v may have been added; false is definitive.
func (b *Bloom) MayContain(v types.Datum) bool {
	h1, h2 := b.hashes(v)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % b.m
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// SizeBytes is the filter's wire size — what shipping it to a DN costs.
func (b *Bloom) SizeBytes() int { return len(b.bits) * 8 }

// BloomHandle is the rendezvous between a HashJoin (producer) and the
// probe-side NDP scan fragments (consumers). The planner wires the same
// handle into both; the join publishes after collecting its build side and
// before opening the probe side, so fragments always observe the filter.
// Access is atomic because fragments run on exchange goroutines.
type BloomHandle struct {
	ptr atomic.Pointer[Bloom]
}

// NewBloomHandle returns an empty handle.
func NewBloomHandle() *BloomHandle { return &BloomHandle{} }

// Set publishes the filter (replacing any previous one on re-open).
func (h *BloomHandle) Set(b *Bloom) { h.ptr.Store(b) }

// Get returns the current filter, or nil if none has been published.
func (h *BloomHandle) Get() *Bloom {
	if h == nil {
		return nil
	}
	return h.ptr.Load()
}
