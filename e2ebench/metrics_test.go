package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

func TestMetricNames(t *testing.T) {
	if err := checkNames(); err != nil {
		t.Fatal(err)
	}
}

// BENCHMARK.json at the repository root must list exactly the metrics and
// workloads the benchmark reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e, pl []string
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range spec.PerLayer {
		pl = append(pl, m.Name)
	}
	same := func(what string, got, want []string) {
		g, w := append([]string(nil), got...), append([]string(nil), want...)
		sort.Strings(g)
		sort.Strings(w)
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark reports %v", what, g, w)
		}
	}
	same("end_to_end", e2e, endToEndNames)
	same("per_layer", pl, perLayerNames())
}

func TestStealFree(t *testing.T) {
	steal := []float64{0.02, 0.30, 0.10, 0.55, 0.05, 0.20}
	lat := make([]float64, len(steal))
	rate := make([]float64, len(steal))
	for i, s := range steal {
		lat[i] = 10 + 20*s
		rate[i] = 100 - 50*s
	}
	if got := stealFree(lat, steal, +1); math.Abs(got-10) > 1e-9 {
		t.Errorf("latency at zero steal = %v, want 10", got)
	}
	if got := stealFree(rate, steal, -1); math.Abs(got-100) > 1e-9 {
		t.Errorf("throughput at zero steal = %v, want 100", got)
	}
	// Faster under more steal is noise: no correction, the plain median of
	// the blocks within maxFitSteal (all but steal 0.55).
	within := append(append([]float64(nil), rate[:3]...), rate[4:]...)
	if got, want := stealFree(rate, steal, +1), median(within); got != want {
		t.Errorf("wrong-sign slope: got %v, want the median %v", got, want)
	}
	// One outlying block does not swing the fit.
	lat[1] += 40
	if got := stealFree(lat, steal, +1); math.Abs(got-10) > 1e-9 {
		t.Errorf("with an outlier: latency at zero steal = %v, want 10", got)
	}
	// No steal variation: the plain median.
	flat := []float64{0.1, 0.11, 0.1}
	if got := stealFree([]float64{3, 1, 2}, flat, +1); got != 2 {
		t.Errorf("constant steal: got %v, want the median 2", got)
	}
	// Blocks above maxFitSteal are left out while minFitBlocks remain: a
	// steeper rise there must not change the estimate.
	steal = []float64{0.01, 0.05, 0.10, 0.20, 0.30, 0.35, 0.60, 0.80}
	lat = make([]float64, len(steal))
	for i, s := range steal {
		lat[i] = 10 + 20*s
		if s > maxFitSteal {
			lat[i] += 200 * (s - maxFitSteal)
		}
	}
	if got := stealFree(lat, steal, +1); math.Abs(got-10) > 1e-9 {
		t.Errorf("convex above the cap: latency at zero steal = %v, want 10", got)
	}
}

func TestHistogramDelta(t *testing.T) {
	parse := func(text string) series {
		s, err := parseMetrics(bufio.NewScanner(strings.NewReader(text)))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	before := parse(`music_op_latency_count{op="criticalGet",site="site-a"} 2
music_op_latency_mean_us{op="criticalGet",site="site-a"} 100
nettrans_rpc_latency_count{svc="store.read"} 7
`)
	after := parse(`music_op_latency_count{op="criticalGet",site="site-a"} 6
music_op_latency_mean_us{op="criticalGet",site="site-a"} 150
music_op_latency_count{op="criticalPut",site="site-a"} 1
music_op_latency_mean_us{op="criticalPut",site="site-a"} 999
nettrans_rpc_latency_count{svc="store.read"} 10
nettrans_rpc_latency_count{svc="store.apply"} 4
`)
	d := delta{before: []series{before}, after: []series{after}}
	// 6×150 − 2×100 = 700 µs over 4 new gets.
	if got := d.histSum("music_op_latency", `op="criticalGet"`); math.Abs(got-700) > 1e-9 {
		t.Fatalf("histSum = %v, want 700", got)
	}
	if got := d.sum("nettrans_rpc_latency_count"); got != 7 {
		t.Fatalf("sum over services = %v, want 7", got)
	}
	if got := d.sum("nettrans_rpc_latency_count", `svc="store.read"`); got != 3 {
		t.Fatalf("store.read delta = %v, want 3", got)
	}
}
