package plan

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSortKeys: ANALYZE's radix sort orders keys as slices.Sort does,
// whichever bytes the keys share.
func TestSortKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 7, 300, 5000} {
		for _, mask := range []uint64{0, 1, 0xff00, 0xffff_ffff, 0x8000_0000_0000_00ff, ^uint64(0)} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64()&mask | 0x0100_0000_0000_0000
			}
			want := slices.Clone(keys)
			slices.Sort(want)
			if sortKeys(keys); !slices.Equal(keys, want) {
				t.Fatalf("n=%d mask=%#x: radix order differs from slices.Sort", n, mask)
			}
		}
	}
}
