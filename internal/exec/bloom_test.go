package exec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// TestBloomFalsePositiveRate: a filter of n keys admits no more than its
// size promises of 200 000 keys it was never given — 10 bits and 4 probes
// per key is ~1.2 %, and the 512-bit floor makes small filters no worse —
// whatever the keys' pattern, and it never rejects a key it was given.
func TestBloomFalsePositiveRate(t *testing.T) {
	const (
		probes  = 200_000
		maxRate = 0.016
	)
	rng := rand.New(rand.NewSource(48))
	patterns := []struct {
		name string
		key  func(i int) int64 // injective: key(i) for i ≥ n is never a member
	}{
		{"sequential", func(i int) int64 { return int64(i) }},
		{"stride-4", func(i int) int64 { return int64(i) * 4 }},
		{"stride-1024", func(i int) int64 { return int64(i)<<10 - 1<<40 }},
	}
	for _, n := range []int{50, 200, 1000, 10_000} {
		for _, pat := range patterns {
			bf := NewBloom(n)
			for i := 0; i < n; i++ {
				bf.Add(types.NewInt(pat.key(i)))
			}
			for i := 0; i < n; i++ {
				if !bf.MayContain(types.NewInt(pat.key(i))) {
					t.Fatalf("%s n=%d: member %d rejected", pat.name, n, pat.key(i))
				}
			}
			fp := 0
			for i := n; i < n+probes; i++ {
				if bf.MayContain(types.NewInt(pat.key(i))) {
					fp++
				}
			}
			if rate := float64(fp) / probes; rate > maxRate {
				t.Errorf("%s n=%d: false-positive rate %.2f %%, want ≤ %.1f %%", pat.name, n, 100*rate, 100*maxRate)
			}
		}
		// Random keys, and random non-members.
		bf := NewBloom(n)
		members := map[int64]bool{}
		for len(members) < n {
			k := rng.Int63() - rng.Int63()
			members[k] = true
			bf.Add(types.NewInt(k))
		}
		for k := range members {
			if !bf.MayContain(types.NewInt(k)) {
				t.Fatalf("random n=%d: member %d rejected", n, k)
			}
		}
		fp := 0
		for i := 0; i < probes; i++ {
			k := rng.Int63() - rng.Int63()
			if !members[k] && bf.MayContain(types.NewInt(k)) {
				fp++
			}
		}
		if rate := float64(fp) / probes; rate > maxRate {
			t.Errorf("random n=%d: false-positive rate %.2f %%, want ≤ %.1f %%", n, 100*rate, 100*maxRate)
		}
	}
}

// bloomKernelOracle checks FilterInts against MayContain of each value's
// datum: a selected row stays selected iff it is not NULL and the filter
// may contain it, and an unselected row stays unselected.
func bloomKernelOracle(t *testing.T, bf *Bloom, vals []int64, nulls, sel []bool) {
	t.Helper()
	got := append([]bool(nil), sel...)
	bf.FilterInts(vals, nulls, got)
	for i, v := range vals[:len(sel)] {
		null := nulls != nil && nulls[i]
		want := sel[i] && !null && bf.MayContain(types.NewInt(v))
		if got[i] != want {
			t.Fatalf("row %d (%d, null %t, selected %t): kernel keeps %t, MayContain says %t", i, v, null, sel[i], got[i], want)
		}
	}
}

// bloomKernelKeepsAll checks that FilterInts keeps every key the filter
// was built from.
func bloomKernelKeepsAll(t *testing.T, bf *Bloom, built []int64) {
	t.Helper()
	keep := make([]bool, len(built))
	for i := range keep {
		keep[i] = true
	}
	bf.FilterInts(built, nil, keep)
	for i, ok := range keep {
		if !ok {
			t.Fatalf("the kernel rejects built key %d", built[i])
		}
	}
}

// TestBloomKernelMatchesMayContain: the one-pass BIGINT probe keeps exactly
// the rows the datum probe keeps — NULLs dropped, holes in the selection
// left alone — over filters built from BIGINT keys and from the integral
// DOUBLE keys equal to them (a filter built from 3.0 admits 3).
func TestBloomKernelMatchesMayContain(t *testing.T) {
	edges := []int64{math.MinInt64, math.MaxInt64, 0, -1, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1 << 53) - 1, 3}
	rng := rand.New(rand.NewSource(7))
	built := append([]int64{}, edges...)
	for i := 0; i < 300; i++ {
		built = append(built, rng.Int63n(1000)-500)
	}
	fromInts, fromFloats := NewBloom(len(built)), NewBloom(len(built))
	var asFloats []int64 // the built keys a DOUBLE equals
	for _, k := range built {
		fromInts.Add(types.NewInt(k))
		if f := float64(k); f >= -(1<<63) && f < 1<<63 && int64(f) == k {
			fromFloats.Add(types.NewFloat(f))
			asFloats = append(asFloats, k)
		}
	}
	if !fromFloats.MayContain(types.NewInt(3)) {
		t.Fatal("a filter built from DOUBLE 3.0 rejects BIGINT 3")
	}
	for _, f := range []struct {
		bf      *Bloom
		members []int64
	}{{fromInts, built}, {fromFloats, asFloats}} {
		bf, members := f.bf, f.members
		for trial := 0; trial < 200; trial++ {
			n := 1 + rng.Intn(1100)
			vals, nulls, sel := make([]int64, n), make([]bool, n), make([]bool, n)
			for i := range vals {
				switch r := rng.Intn(4); {
				case r == 0:
					vals[i] = edges[rng.Intn(len(edges))]
				case r == 1:
					vals[i] = built[rng.Intn(len(built))]
				default:
					vals[i] = rng.Int63n(4000) - 2000
				}
				nulls[i] = rng.Intn(8) == 0
				sel[i] = rng.Intn(5) != 0
			}
			if trial%3 == 0 {
				nulls = nil // a vector without NULLs carries no null slice
			}
			// The kernel reads only the rows sel covers.
			bloomKernelOracle(t, bf, vals, nulls, sel[:rng.Intn(n+1)])
		}
		bloomKernelKeepsAll(t, bf, members)
	}
}

// FuzzBloomKernel: the BIGINT kernel keeps what MayContain keeps, on a
// filter built from the input's first keys, as BIGINTs or as DOUBLEs.
func FuzzBloomKernel(f *testing.F) {
	le := func(vs ...int64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(le(3, 0, math.MinInt64, math.MaxInt64, 3, 4), uint8(2), uint64(0b101010), false)
	f.Add(le(1<<53+1, 1<<53-1, 1<<53, 1<<53+1), uint8(1), uint64(0xffff), true)
	f.Add(le(-1, 0, 1, 2, 3, 4, 5, 6, 7, 8), uint8(5), uint64(0x3ff), false)
	f.Fuzz(func(t *testing.T, data []byte, nbuilt uint8, mask uint64, asFloat bool) {
		var vals []int64
		for len(data) >= 8 && len(vals) < 64 {
			vals = append(vals, int64(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
		bf := NewBloom(int(nbuilt))
		for _, k := range vals[:min(int(nbuilt), len(vals))] {
			if asFloat {
				bf.Add(types.NewFloat(float64(k)))
			} else {
				bf.Add(types.NewInt(k))
			}
		}
		nulls, sel := make([]bool, len(vals)), make([]bool, len(vals))
		for i := range vals {
			nulls[i] = mask>>(i%64)&1 == 1 && i%3 == 0
			sel[i] = mask>>(i%64)&1 == 1 || i%2 == 0
		}
		bloomKernelOracle(t, bf, vals, nulls, sel)
		if !asFloat {
			bloomKernelKeepsAll(t, bf, vals[:min(int(nbuilt), len(vals))])
		}
	})
}
