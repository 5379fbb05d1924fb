package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPercentilePicker(t *testing.T) {
	few := make([]float64, 999)
	for i := range few {
		few[i] = float64(999 - i) // descending: the picker must not rely on order
	}
	if v, ok := percentile(few, 50); !ok || v != 500 {
		t.Errorf("p50 of 1..999 = %v, %v; want 500, true", v, ok)
	}
	if _, ok := percentile(few, 99); ok {
		t.Error("a p99 was reported from 999 samples; it needs 1000")
	}
	if few[0] != 999 {
		t.Error("percentile reordered its input")
	}
	enough := append(few, 1000)
	if v, ok := percentile(enough, 99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a median was reported from no samples")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtraction(t *testing.T) {
	st := subtractDepths(100, 90, 60, 5, 10)
	want := selfTimes{driver: 10, server: 25, parse: 5, plan: 10, cluster: 50}
	if st != want {
		t.Errorf("self times = %+v, want %+v", st, want)
	}
	if st.sum() != 100 {
		t.Errorf("self times sum to %v, want the full-depth 100", st.sum())
	}
	// Medians of different operations can cross; a layer never gets negative time.
	if st := subtractDepths(80, 90, 95, 5, 10); st.driver != 0 || st.server != 0 {
		t.Errorf("crossed medians gave driver %v, server %v; want 0, 0", st.driver, st.server)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		hash := func(seed int64) uint64 {
			w, err := newWorkload(name, 50, seed)
			if err != nil {
				t.Fatal(err)
			}
			return w.plan(subSeed(seed, 0)).streamHash()
		}
		if a, b := hash(7), hash(7); a != b {
			t.Errorf("%s: seed 7 gave statement streams %x and %x", name, a, b)
		}
		if a, b := hash(7), hash(8); a == b {
			t.Errorf("%s: seeds 7 and 8 gave the same statement stream", name)
		}
	}
}

func TestMergeClientsKeepsPacing(t *testing.T) {
	writer := make([]op, 25)
	for i := range writer {
		writer[i].class = clNewOrder
	}
	reader := []op{{class: clAgg, after: 10}, {class: clAgg, after: 20}, {class: clAgg, after: 30}}
	merged := mergeClients([][]op{writer, reader})
	if len(merged) != 28 {
		t.Fatalf("merged %d operations, want 28", len(merged))
	}
	written := 0
	var at []int
	for _, o := range merged {
		if o.class == clAgg {
			at = append(at, written)
		} else {
			written++
		}
	}
	// The third query waits for 30 transactions that never come: it runs last.
	if at[0] != 10 || at[1] != 20 || at[2] != 25 {
		t.Errorf("queries ran after %v transactions, want [10 20 25]", at)
	}
}

func readRepoSpec(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec := readRepoSpec(t)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why: %q), the code runs %q", i, w.Name, w.Why, workloadNames[i])
		}
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd())
	same("per_layer", spec.PerLayer, perLayer())
	if len(spec.EndToEnd) != 13 || len(spec.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; want 13 and at most 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmallScalePass runs every workload end to end and traced at 1/50 of
// its size, one epoch each, and checks the metrics BENCHMARK.json names:
// present, finite, in the declared unit, and never 0 where end to end.
func TestSmallScalePass(t *testing.T) {
	spec := readRepoSpec(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			r, _, err := runWorkload(name, 50, 3, 0, traced, "")
			if err != nil {
				t.Fatalf("%s (traced %v): %v", name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s (traced %v): correct %v, %d of %d operations failed", name, traced, r.Correct, r.Failed, r.Attempted)
			}
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			if len(r.Metrics) != len(declared) {
				t.Errorf("%s (traced %v): %d metrics reported, %d declared", name, traced, len(r.Metrics), len(declared))
			}
			for _, d := range declared {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s missing", name, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s in %q, declared %q", name, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
					t.Errorf("%s: %s = %v", name, d.Name, m.Value)
				case !traced && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", name, d.Name)
				}
			}
			if line := r.contractLine(); !strings.HasPrefix(line, `{"correct":true,"attempted":`) || strings.Contains(line, "samples") {
				t.Errorf("%s: contract line %q", name, line)
			}
		}
	}
}

func TestWrongReplyFailsTheRun(t *testing.T) {
	w, err := newWorkload("point", 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	honest := w.plan
	w.plan = func(seed int64) *plan {
		p := honest(seed)
		last := &p.clients[0][len(p.clients[0])-1]
		last.stmts[0].check = wantRowCount(7) // no point statement returns 7 rows
		return p
	}
	wd := startWatchdog(opTimeout, 2, func(int, []byte) {})
	defer wd.stop()
	if _, err := runEpoch(w, 1, modeClients, 0, wd); err == nil || !strings.Contains(err.Error(), "wrong result") {
		t.Errorf("an unexpected reply gave error %v, want a wrong-result failure", err)
	}
}

func TestWatchdogDumpsStacks(t *testing.T) {
	fired := make(chan []byte, 1)
	wd := startWatchdog(40*time.Millisecond, 2, func(client int, stacks []byte) {
		if client != 1 {
			t.Errorf("watchdog blamed client %d, want 1", client)
		}
		fired <- stacks
	})
	defer wd.stop()
	wd.enter(0)
	wd.leave(0) // a finished operation is never blamed
	wd.enter(1) // this one hangs
	select {
	case stacks := <-fired:
		if !bytes.Contains(stacks, []byte("goroutine ")) {
			t.Error("the dump holds no goroutine stacks")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the watchdog did not fire on an operation 50x over its limit")
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("a single run has a spread")
	}
}

func TestVerdicts(t *testing.T) {
	for _, c := range []struct {
		base, next []float64
		better     string
		want       string
	}{
		{[]float64{100}, []float64{104}, "lower", "same"},
		{[]float64{100}, []float64{111}, "lower", "worse"},
		{[]float64{100}, []float64{89}, "lower", "better"},
		{[]float64{100}, []float64{89}, "higher", "worse"},
		{[]float64{100}, []float64{111}, "higher", "better"},
		{[]float64{80, 100, 120}, []float64{101, 102, 103}, "lower", "unresolved"},
		{[]float64{80, 100, 120}, []float64{130, 131, 132}, "lower", "worse"},
	} {
		if got := verdict(c.base, c.next, c.better, 0.10); got != c.want {
			t.Errorf("verdict(%v -> %v, %s is better) = %s, want %s", c.base, c.next, c.better, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, readMs float64) string {
		r := &result{Workload: "point", Correct: true, Attempted: 10, Metrics: map[string]metric{}}
		for _, d := range endToEnd() {
			r.Metrics[d.name] = metric{Value: 1, Unit: d.unit, Samples: 5}
		}
		r.Metrics["read_ms_p50"] = metric{Value: readMs, Unit: "ms", Samples: 5}
		path := filepath.Join(dir, name)
		if err := writeResults(path, []*result{r}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := write("base.json", 1.0)
	var out bytes.Buffer
	if code := compareFiles(&out, base, write("same.json", 1.02), spec); code != 0 {
		t.Errorf("a 2 %% change exits %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, write("slow.json", 2.0), spec); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a doubled latency exits %d, want 1 with a worse row\n%s", code, out.String())
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatal(err)
	}
}
