package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the catalogue")

// tiny is a configuration small enough for the self-check: two programs,
// short inputs and a fixed number of passes instead of a duration.
var tiny = sizes{
	programs:  []string{"adpcm", "g721_dec"},
	profBytes: 4000, runCycles: 500_000, pathCycles: 20_000_000, timeBytes: 500, pathBytes: 100, steadyBytes: 500,
	frames: 16, passes: 2,
}

// exactCounts must repeat bit for bit across two runs of one seed.
var exactCounts = []string{"size_ratio", "cycles_ratio", "vm.insts_per_op", "core.decompressions_per_op", "core.evictions_per_op"}

func runTiny(t *testing.T, workload string, seed int64, corrupt bool) *report {
	t.Helper()
	// The serve workload makes its sockets under the working directory.
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(old)
	rep, err := runBenchmark(options{workload: workload, seed: seed, trace: true, setups: 1, corrupt: corrupt}, tiny)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestSelfCheck shows, per workload, that the output check counts a
// corrupted reference as a failed op, that the exact counts repeat for
// one seed, and that another seed changes the inputs.
func TestSelfCheck(t *testing.T) {
	known := map[string]bool{}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		known[m.name] = true
	}
	for _, wl := range []string{"compile", "run", "serve"} {
		t.Run(wl, func(t *testing.T) {
			a := runTiny(t, wl, 1, false)
			if a.failed != 0 || a.attempted == 0 {
				t.Fatalf("clean run: %d of %d ops failed, first: %v", a.failed, a.attempted, a.firstErr)
			}
			want := append([]string{"error_rate", "obs.remainder_ms", "obs.trace_overhead_frac", "asm.assemble_ms"}, blockingPath[wl]...)
			for _, m := range endToEnd {
				want = append(want, m.name)
			}
			for _, name := range want {
				if _, ok := a.metrics[name]; !ok {
					t.Errorf("metric %s not reported", name)
				}
			}
			for name := range a.metrics {
				if !known[name] {
					t.Errorf("metric %s is not in the catalogue", name)
				}
			}

			b := runTiny(t, wl, 1, false)
			for _, name := range exactCounts {
				if a.metrics[name] != b.metrics[name] {
					t.Errorf("%s: %v then %v on the same seed", name, a.metrics[name], b.metrics[name])
				}
			}
			if a.inputs != b.inputs {
				t.Error("the same seed generated different inputs")
			}

			c := runTiny(t, wl, 2, false)
			if c.inputs == a.inputs {
				t.Error("a second seed did not change the inputs")
			}
			if wl == "run" && c.metrics["vm.insts_per_op"] == a.metrics["vm.insts_per_op"] {
				t.Error("a second seed did not change the work per run")
			}

			bad := runTiny(t, wl, 1, true)
			if bad.failed == 0 {
				t.Error("a corrupted reference was not counted as a failed op")
			}
		})
	}
}

// benchmarkJSON is the file the benchmark is registered by.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []e2eDoc      `json:"end_to_end"`
	PerLayer   []layerDoc    `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDoc struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDoc struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSON checks BENCHMARK.json against the catalogue; with
// -update it rewrites the file from it.
func TestBenchmarkJSON(t *testing.T) {
	want := benchmarkJSON{
		Command:    []string{"bash", "ledger/run.sh"},
		Paths:      []string{"ledger"},
		RunSeconds: runSeconds,
	}
	for _, name := range []string{"compile", "run", "serve"} {
		want.Workloads = append(want.Workloads, workloadDoc{name, workloadWhy[name]})
	}
	for _, m := range endToEnd {
		want.EndToEnd = append(want.EndToEnd, e2eDoc{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		want.PerLayer = append(want.PerLayer, layerDoc{m.name, m.unit, m.better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(want); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("../BENCHMARK.json", buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf.Bytes()) {
		t.Error("BENCHMARK.json differs from the catalogue; run go test -run TestBenchmarkJSON -update")
	}
	if len(workloadWhy) != len(want.Workloads) {
		t.Errorf("%d workload reasons for %d workloads", len(workloadWhy), len(want.Workloads))
	}
}
