package perfsim_test

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/perfsim"
	"repro/internal/transport"
)

var (
	recordOnce           sync.Once
	litePaths, basePaths perfsim.Paths
	recordErr            error
)

// recorded returns the live engine's recorded paths, GTM-lite and
// baseline, recording them once per test binary.
func recorded() (lite, baseline perfsim.Paths, err error) {
	recordOnce.Do(func() { litePaths, basePaths, recordErr = experiments.RecordPaths() })
	return litePaths, basePaths, recordErr
}

func mustRecorded(t *testing.T) (lite, baseline perfsim.Paths) {
	t.Helper()
	lite, baseline, err := recorded()
	if err != nil {
		t.Fatal(err)
	}
	return lite, baseline
}

func run(dn int, paths perfsim.Paths, ss float64) perfsim.Result {
	p := perfsim.DefaultParams(dn, ss)
	p.Duration = 2.0
	return perfsim.Run(p, paths)
}

// gtmMessages counts the messages of path addressed to the GTM.
func gtmMessages(path perfsim.Path) int {
	n := 0
	for _, e := range path {
		for _, m := range e.Msgs {
			if m.To.Kind == transport.KindGTM {
				n++
			}
		}
	}
	return n
}

// TestDeterminism: the engine records the same paths twice, and replaying
// them twice gives the same run.
func TestDeterminism(t *testing.T) {
	lite, baseline := mustRecorded(t)
	lite2, baseline2, err := experiments.RecordPaths()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lite, lite2) || !reflect.DeepEqual(baseline, baseline2) {
		t.Error("two recordings of the same seeded driver differ")
	}
	a, b := run(4, lite, 0.9), run(4, lite, 0.9)
	if a.Throughput != b.Throughput || a.Completed != b.Completed {
		t.Errorf("simulation not deterministic: %v vs %v", a, b)
	}
}

// TestGTMLiteSSAvoidsGTMEntirely: no single-shard GTM-lite path the engine
// recorded talks to the GTM, so a 100 % single-shard run never queues there.
func TestGTMLiteSSAvoidsGTMEntirely(t *testing.T) {
	lite, _ := mustRecorded(t)
	if len(lite.Single) == 0 || len(lite.Multi) == 0 {
		t.Fatalf("recorded %d single- and %d multi-shard GTM-lite paths, want both", len(lite.Single), len(lite.Multi))
	}
	for i, path := range lite.Single {
		if n := gtmMessages(path); n != 0 {
			t.Fatalf("single-shard GTM-lite path %d sent %d GTM messages: %v", i, n, path)
		}
	}
	for i, path := range lite.Multi {
		if gtmMessages(path) == 0 {
			t.Fatalf("multi-shard GTM-lite path %d never asked the GTM: %v", i, path)
		}
	}
	r := run(4, lite, 1.0)
	if r.GTMRequests != 0 || r.GTMUtilization != 0 {
		t.Errorf("100%% single-shard GTM-lite made %d GTM requests (util %f)", r.GTMRequests, r.GTMUtilization)
	}
}

// TestBaselineHitsGTMForEverything: every baseline path the engine recorded
// asks the GTM, single-shard or not.
func TestBaselineHitsGTMForEverything(t *testing.T) {
	_, baseline := mustRecorded(t)
	if len(baseline.Single) == 0 || len(baseline.Multi) == 0 {
		t.Fatalf("recorded %d single- and %d multi-shard baseline paths, want both", len(baseline.Single), len(baseline.Multi))
	}
	for i, path := range append(append([]perfsim.Path(nil), baseline.Single...), baseline.Multi...) {
		if gtmMessages(path) == 0 {
			t.Fatalf("baseline path %d never asked the GTM: %v", i, path)
		}
	}
	if r := run(4, baseline, 1.0); r.GTMRequests < r.Completed {
		t.Errorf("gtm requests = %d for %d txns", r.GTMRequests, r.Completed)
	}
}

// TestFig3Shape checks the paper's qualitative result on the recorded
// paths: GTM-lite outperforms baseline and scales out much better, with
// the largest gap on the 100 % single-shard workload.
func TestFig3Shape(t *testing.T) {
	lite, baseline := mustRecorded(t)
	sizes := []int{1, 2, 4, 8}
	thr := func(paths perfsim.Paths, ss float64) []float64 {
		out := make([]float64, len(sizes))
		for i, n := range sizes {
			out[i] = run(n, paths, ss).Throughput
		}
		return out
	}
	liteSS := thr(lite, 1.0)
	baseSS := thr(baseline, 1.0)
	liteMS := thr(lite, 0.9)
	baseMS := thr(baseline, 0.9)

	// GTM-lite wins at every size.
	for i := range sizes {
		if liteSS[i] <= baseSS[i] {
			t.Errorf("SS @%d nodes: lite %.0f <= baseline %.0f", sizes[i], liteSS[i], baseSS[i])
		}
		if liteMS[i] <= baseMS[i] {
			t.Errorf("MS @%d nodes: lite %.0f <= baseline %.0f", sizes[i], liteMS[i], baseMS[i])
		}
	}
	// GTM-lite SS scales nearly linearly 1 -> 8.
	if speedup := liteSS[3] / liteSS[0]; speedup < 6 {
		t.Errorf("gtm-lite SS speedup 1->8 nodes = %.1fx, want >= 6x", speedup)
	}
	// Baseline flattens: its 4 -> 8 node gain is small.
	if gain := baseSS[3] / baseSS[2]; gain > 1.3 {
		t.Errorf("baseline SS gained %.2fx from 4->8 nodes; GTM should bottleneck it", gain)
	}
	// The baseline GTM saturates at 8 nodes.
	if util := run(8, baseline, 1.0).GTMUtilization; util < 0.9 {
		t.Errorf("baseline GTM utilization at 8 nodes = %.2f, want near 1.0", util)
	}
	// SS beats MS for GTM-lite ("performed better in 100% single-shard
	// workload because there is no centralized coordination").
	for i := range sizes {
		if liteSS[i] <= liteMS[i] {
			t.Errorf("@%d nodes: lite SS %.0f <= lite MS %.0f", sizes[i], liteSS[i], liteMS[i])
		}
	}
}

func TestLatencyStatsSane(t *testing.T) {
	lite, _ := mustRecorded(t)
	r := run(2, lite, 0.9)
	if r.AvgLatency <= 0 || r.P95Latency < r.AvgLatency {
		t.Errorf("latency stats broken: avg=%v p95=%v", r.AvgLatency, r.P95Latency)
	}
	// Closed loop with 32 clients: Little's law X = N / (R + Z), Z=0.
	n := float64(r.Params.ClientsPerDN * r.Params.DataNodes)
	littles := n / r.AvgLatency
	if ratio := r.Throughput / littles; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Little's law violated: X=%.0f, N/R=%.0f", r.Throughput, littles)
	}
}

// TestFanoutClampedToCluster: a 2-DN path on a 1-node cluster maps both of
// its legs onto the one node and keeps its GTM and 2PC messages.
func TestFanoutClampedToCluster(t *testing.T) {
	lite, _ := mustRecorded(t)
	p := perfsim.DefaultParams(1, 0)
	p.Duration = 0.5
	r := perfsim.Run(p, lite)
	if r.Completed == 0 {
		t.Fatal("multi-shard paths on one node produced nothing")
	}
	if r.GTMRequests < 2*r.Completed {
		t.Errorf("%d multi-shard txns on one node made %d GTM requests, want their begin and end each", r.Completed, r.GTMRequests)
	}
}

func TestUtilizationBounds(t *testing.T) {
	lite, baseline := mustRecorded(t)
	for name, paths := range map[string]perfsim.Paths{"gtm-lite": lite, "baseline": baseline} {
		for _, ss := range []float64{1.0, 0.9, 0.5} {
			r := run(4, paths, ss)
			if r.GTMUtilization < 0 || r.GTMUtilization > 1.0001 {
				t.Errorf("%s ss=%v: gtm util %f out of bounds", name, ss, r.GTMUtilization)
			}
			if r.DNUtilization < 0 || r.DNUtilization > 1.0001 {
				t.Errorf("%s ss=%v: dn util %f out of bounds", name, ss, r.DNUtilization)
			}
			if r.Throughput <= 0 {
				t.Errorf("%s ss=%v: zero throughput", name, ss)
			}
		}
	}
}

func TestCrossShardFractionSweepMonotone(t *testing.T) {
	lite, _ := mustRecorded(t)
	// As the multi-shard fraction grows, GTM-lite throughput must fall
	// (more coordination). Allow small simulation noise.
	prev := -1.0
	for _, ss := range []float64{1.0, 0.9, 0.7, 0.5, 0.3} {
		r := run(4, lite, ss)
		if prev > 0 && r.Throughput > prev*1.05 {
			t.Errorf("throughput rose when ss dropped to %.1f: %.0f -> %.0f", ss, prev, r.Throughput)
		}
		prev = r.Throughput
	}
}

// TestReplayCostsOneHopPerAwaitedEntry pins the replay rules on a
// hand-built path with one client: an awaited entry costs one hop plus its
// slowest message's service, DNWork is split over the leg's data messages,
// and an entry nobody waits for costs the client nothing but still occupies
// its server.
func TestReplayCostsOneHopPerAwaitedEntry(t *testing.T) {
	write := transport.Msg{From: transport.CN(), To: transport.DN(3), Type: transport.Write}
	commit := transport.Msg{From: transport.CN(), To: transport.DN(3), Type: transport.Commit}
	end := transport.Msg{From: transport.CN(), To: transport.GTM(), Type: transport.GTMRound}
	path := perfsim.Path{
		{Awaited: true, Msgs: []transport.Msg{write}},
		{Awaited: true, Msgs: []transport.Msg{write}},
		{Awaited: true, Msgs: []transport.Msg{commit}},
		{Msgs: []transport.Msg{end}},
	}
	var paths perfsim.Paths
	paths.Add(path)
	if len(paths.Single) != 1 {
		t.Fatalf("a one-node path was filed as %+v", paths)
	}
	p := perfsim.DefaultParams(1, 1.0)
	p.ClientsPerDN = 1
	r := perfsim.Run(p, paths)
	// Client -> CN, CN work, three awaited entries, reply.
	want := 5*p.NetHop + p.CNService + p.DNWork + p.CommitCost
	if math.Abs(r.AvgLatency-want) > 1e-9 {
		t.Errorf("latency %v, want %v", r.AvgLatency, want)
	}
	if r.GTMRequests < r.Completed {
		t.Errorf("the unawaited GTM end was served %d times for %d txns", r.GTMRequests, r.Completed)
	}
}

func ExampleRun() {
	lite, _, err := recorded()
	if err != nil {
		panic(err)
	}
	p := perfsim.DefaultParams(4, 1.0)
	p.Duration = 1.0
	fmt.Println(perfsim.Run(p, lite).GTMRequests)
	// Output: 0
}
