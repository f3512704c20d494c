package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// benchMetricNames reads the metric names BENCHMARK.json declares.
func benchMetricNames(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	for _, m := range cfg.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range cfg.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, mode string, got map[string]metric, want []string) {
	t.Helper()
	w := append([]string(nil), want...)
	sort.Strings(w)
	g := metricNames(got)
	if len(g) != len(w) {
		t.Fatalf("%s metrics %v, want %v", mode, g, w)
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s metrics %v, want %v", mode, g, w)
		}
	}
}

// Both modes print exactly the metrics BENCHMARK.json declares, and the
// traced run leaves its spans, profile and cpu_share table behind.
func TestModesPrintDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two workloads in both modes")
	}
	endToEnd, perLayer := benchMetricNames(t)
	for _, name := range []string{"events-report", "fleet-grid"} {
		t.Run(name, func(t *testing.T) {
			out := t.TempDir()
			res, err := bench(name, workloads[name], 1, 200*time.Millisecond, false, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("untraced run failed %d of %d", res.Failed, res.Attempted)
			}
			sameNames(t, "untraced", res.Metrics, endToEnd)

			res, err = bench(name, workloads[name], 1, 200*time.Millisecond, true, out)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run failed %d of %d", res.Failed, res.Attempted)
			}
			sameNames(t, "traced", res.Metrics, perLayer)
			for _, suffix := range []string{".spans.json", ".cpu.pprof", ".cpu_share.txt"} {
				if _, err := os.Stat(filepath.Join(out, name+"-seed1"+suffix)); err != nil {
					t.Error(err)
				}
			}
		})
	}
}
