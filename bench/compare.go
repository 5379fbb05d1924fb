package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json that -compare and the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, the quartiles placed as Python's
// statistics.quantiles(values, n=4) places them. Fewer than two values
// have no spread.
func quartileSpread(values []float64) float64 {
	n := len(values)
	if n < 2 {
		return 0
	}
	s := sorted(values)
	q := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	spread := (q(0.75) - q(0.25)) / med
	if spread < 0 {
		spread = -spread
	}
	return spread
}

// relChange is the signed relative change of the median from base to next.
func relChange(base, next []float64) float64 {
	b, n := median(base), median(next)
	switch {
	case b != 0:
		return (n - b) / b
	case n != 0:
		return 1
	}
	return 0
}

// verdict compares a metric's runs on two sides. A metric is worse when
// its median moved against its direction by more than bound; otherwise it
// is unresolved when either side's own spread exceeds the bound, better
// when it moved the right way by more than the bound, and the same
// otherwise.
func verdict(base, next []float64, better string, bound float64) string {
	worseBy := relChange(base, next)
	if better == "higher" {
		worseBy = -worseBy
	}
	switch spread := max(quartileSpread(base), quartileSpread(next)); {
	case worseBy > bound:
		return "worse"
	case spread > bound:
		return "unresolved"
	case worseBy < -bound:
		return "better"
	}
	return "same"
}

// compareFiles prints one row per (workload, metric) of two result files
// and returns the exit code: 1 when any bounded metric is worse.
func compareFiles(w io.Writer, basePath, newPath, specPath string) int {
	spec, err := readSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	natives := map[string]bool{} // "workload/metric" measured natively on either side
	load := func(path string) (map[string]map[string][]float64, bool) {
		b, err := os.ReadFile(path)
		var f resultFile
		if err == nil {
			err = json.Unmarshal(b, &f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
			return nil, false
		}
		vals := map[string]map[string][]float64{} // "workload/trace" -> metric -> one value per run
		for _, r := range f.Runs {
			key := fmt.Sprintf("%s/%d", r.Workload, r.Trace)
			if vals[key] == nil {
				vals[key] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				vals[key][name] = append(vals[key][name], m.Value)
				if r.native(name) {
					natives[r.Workload+"/"+name] = true
				}
			}
		}
		return vals, true
	}
	base, ok1 := load(basePath)
	next, ok2 := load(newPath)
	if !ok1 || !ok2 {
		return 2
	}

	code := 0
	fmt.Fprintf(w, "%-10s %-44s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "delta", "bound", "verdict")
	row := func(wl string, m specMetric, b, n []float64, bounded bool) {
		v, bound := "-", "-"
		if bounded {
			v, bound = verdict(b, n, m.Better, m.Bound), fmt.Sprintf("%g%%", m.Bound*100)
			if v == "worse" {
				code = 1
			}
		}
		fmt.Fprintf(w, "%-10s %-44s %14.4f %14.4f %+7.1f%% %6s  %s\n", wl, m.Name,
			median(b), median(n), relChange(b, n)*100, bound, v)
	}
	for _, wl := range spec.Workloads {
		if b, n := base[wl.Name+"/0"], next[wl.Name+"/0"]; b != nil && n != nil {
			for _, m := range spec.EndToEnd {
				if natives[wl.Name+"/"+m.Name] {
					row(wl.Name, m, b[m.Name], n[m.Name], true)
				}
			}
		}
		if b, n := base[wl.Name+"/1"], next[wl.Name+"/1"]; b != nil && n != nil {
			for _, m := range spec.PerLayer {
				if len(b[m.Name]) > 0 && len(n[m.Name]) > 0 && (median(b[m.Name]) != 0 || median(n[m.Name]) != 0) {
					row(wl.Name, m, b[m.Name], n[m.Name], false)
				}
			}
		}
	}
	return code
}
