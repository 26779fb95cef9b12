package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks the
// command against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestTinyScale runs every workload of BENCHMARK.json, untraced and traced,
// at tiny scale against a upa-server built from this tree. Each run must
// pass its output checks and report exactly the metrics BENCHMARK.json
// declares, with their units.
func TestTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("builds upa-server and runs every workload")
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, serverName)
	build := exec.Command("go", "build", "-o", bin, "upa/cmd/upa-server")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("build upa-server: %v", err)
	}
	defer stopAllServers()

	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := runOne(options{
				workload: wl.Name, seed: 7, seconds: 1, trace: traced,
				server: bin, workdir: dir, sc: tinyScale,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", wl.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %q, BENCHMARK.json says %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced && res.Metrics["trace.coverage_share"].Value <= 0 {
				t.Errorf("%s: trace.coverage_share = %v, want > 0", wl.Name, res.Metrics["trace.coverage_share"].Value)
			}
		}
	}
}
