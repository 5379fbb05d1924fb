package exec

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/types"
)

// Bloom is a fixed-size bloom filter over join-key datums, used for
// sideways information passing: HashJoin builds it from the (small) build
// side's keys and NDP scans probe it DN-side so non-matching probe rows
// never cross the fabric. A key is hashed by the hash join's own equality
// (types.AppendKey: equal bytes iff Compare == 0): one the key encodes
// under the integer tag — a BIGINT, an integral DOUBLE — by a mix of that
// integer (types.KeyInt), any other by its key bytes. Equal keys hash
// alike, so a datum the filter rejects provably cannot match any build row.
type Bloom struct {
	bits []uint64
	m    uint64 // bit count
}

// bloomBitsPerKey sizes the filter: 10 bits/key with bloomHashes = 4 bits
// set per key gives a ~1.2% false-positive rate, plenty for a semi-join hint
// (false positives only cost shipping a row the join drops anyway).
const (
	bloomBitsPerKey = 10
	bloomHashes     = 4
)

// NewBloom returns a filter sized for n keys (minimum 512 bits so tiny
// build sides still get a usable filter).
func NewBloom(n int) *Bloom {
	m := uint64(n * bloomBitsPerKey)
	if m < 512 {
		m = 512
	}
	m = (m + 63) &^ 63 // round up to whole words
	return &Bloom{bits: make([]uint64, m/64), m: m}
}

// mixInt is splitmix64: every bit of x reaches every bit of the result, so
// the high bits a bit position is read from are as good as the low ones.
func mixInt(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// keyHash is the filter's one hash of a key datum.
func keyHash(v types.Datum) uint64 {
	if i, ok := types.KeyInt(v); ok {
		return mixInt(uint64(i))
	}
	var buf [32]byte
	h := uint64(14695981039346656037) // FNV-1a over the key bytes, then mixed
	for _, x := range types.AppendKey(buf[:0], v) {
		h = (h ^ uint64(x)) * 1099511628211
	}
	return mixInt(h)
}

// A key's bloomHashes bits are read off its hash h in pairs: one from h and
// one from h with its halves swapped, then the next pair the same way from
// h times an odd constant. Each bit is the high word of the product of
// those 64 bits with m (multiply-shift): the two of a pair come from
// disjoint bits of h for any m below 2^32, and no division is made.

// nextProbe steps x to the hash the (i+1)-th bit is read from.
func nextProbe(x uint64, i int) uint64 {
	x = bits.RotateLeft64(x, 32)
	if i&1 != 0 {
		x *= 0x9e3779b97f4a7c15
	}
	return x
}

// Add inserts one key datum.
func (b *Bloom) Add(v types.Datum) {
	h := keyHash(v)
	for i := range bloomHashes {
		at, _ := bits.Mul64(h, b.m)
		b.bits[at>>6] |= 1 << (at & 63)
		h = nextProbe(h, i)
	}
}

// has reports whether every bit of hash h is set.
func (b *Bloom) has(h uint64) bool {
	for i := range bloomHashes {
		at, _ := bits.Mul64(h, b.m)
		if b.bits[at>>6]&(1<<(at&63)) == 0 {
			return false
		}
		h = nextProbe(h, i)
	}
	return true
}

// MayContain reports whether v may have been added; false is definitive.
func (b *Bloom) MayContain(v types.Datum) bool { return b.has(keyHash(v)) }

// FilterInts is MayContain over a BIGINT column in one pass: it clears
// sel[i] for every selected row whose key vals[i] is NULL (nulls[i]; nulls
// is nil when none is) or rejected. It reads the first len(sel) rows.
func (b *Bloom) FilterInts(vals []int64, nulls []bool, sel []bool) {
	vals = vals[:len(sel)]
	for i, v := range vals {
		if sel[i] && (nulls != nil && nulls[i] || !b.has(mixInt(uint64(v)))) {
			sel[i] = false
		}
	}
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
