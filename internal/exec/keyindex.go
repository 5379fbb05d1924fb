package exec

import (
	"bytes"
	"hash/maphash"
)

// keySeed seeds every keyIndex's hash. Entry numbers follow arrival order,
// never hash order, so nothing observable depends on it.
var keySeed = maphash.MakeSeed()

// keyIndex numbers distinct byte keys (types.AppendKey encodings) 0, 1, 2, …
// in first-seen order: the one hash table under JoinTable, AggTable, the
// DISTINCT aggregates and the Distinct operator. Key bytes are appended to
// one arena and the table is open addressing over entry numbers, so a new
// key allocates nothing of its own — the arrays double as they fill. Its
// users keep per-key state in slices indexed by entry number. The zero value
// is empty and ready; once filling stops, find may run from many goroutines.
type keyIndex struct {
	arena  []byte   // every key's bytes, back to back
	ends   []int    // entry e's key is arena[ends[e-1]:ends[e]]
	hashes []uint64 // entry e's hash: growth re-slots without re-reading keys
	slots  []uint32 // entry number + 1, 0 for empty; a power of two long, at most half full
}

// len returns the number of distinct keys seen.
func (x *keyIndex) len() int { return len(x.ends) }

// find returns key's entry number, if it has one.
func (x *keyIndex) find(key []byte) (entry int, ok bool) {
	return x.lookup(key, maphash.Bytes(keySeed, key), false)
}

// put returns key's entry number, entering it as the next one when it is new.
func (x *keyIndex) put(key []byte) (entry int, isNew bool) {
	entry, found := x.lookup(key, maphash.Bytes(keySeed, key), true)
	return entry, !found
}

// lookup probes for key, whose hash is h, and with insert enters it if absent.
func (x *keyIndex) lookup(key []byte, h uint64, insert bool) (entry int, found bool) {
	if len(x.slots) == 0 {
		if !insert {
			return 0, false
		}
		x.slots = make([]uint32, 16)
	}
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			if !insert {
				return 0, false
			}
			entry = len(x.ends)
			x.arena = append(room(x.arena, len(key)), key...)
			x.ends = append(room(x.ends, 1), len(x.arena))
			x.hashes = append(room(x.hashes, 1), h)
			x.slots[i] = uint32(entry + 1)
			if 2*len(x.ends) > len(x.slots) {
				x.grow()
			}
			return entry, false
		}
		if e := int(s - 1); x.hashes[e] == h && bytes.Equal(x.key(e), key) {
			return e, true
		}
	}
}

// room returns s with room for n more elements, doubling a slice that lacks
// it. append grows a large slice by a quarter, which over a table's build
// allocates about five times its final size; doubling allocates twice.
func room[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = append(make([]T, 0, max(16, 2*cap(s), len(s)+n)), s...)
	}
	return s
}

// key returns entry e's key bytes (a view into the arena).
func (x *keyIndex) key(e int) []byte {
	start := 0
	if e > 0 {
		start = x.ends[e-1]
	}
	return x.arena[start:x.ends[e]]
}

// grow doubles the slot array and re-slots every entry by its stored hash.
func (x *keyIndex) grow() {
	x.slots = make([]uint32, 2*len(x.slots))
	mask := uint64(len(x.slots) - 1)
	for e, h := range x.hashes {
		i := h & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = uint32(e + 1)
	}
}
