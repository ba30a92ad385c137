package benchhist

import (
	"path/filepath"
	"strings"
	"testing"
)

// sampleReport mirrors cmd/squashload's LoadReport JSON shape.
const sampleReport = `{
  "mode": "replay",
  "concurrency": 4,
  "rate": 2,
  "requests": 40,
  "objects": 55,
  "errors": 0,
  "duration_sec": 1.25,
  "req_per_sec": 32.0,
  "obj_per_sec": 44.0,
  "latency_ms": {"p50": 1.2, "p90": 40.1, "p99": 85.0, "max": 120.5, "mean": 9.3},
  "cache_hit_rate": 0.91,
  "prep_hit_rate": 1.0,
  "bytes_in": 5242880,
  "bytes_out": 1048576,
  "bytes_in_per_sec": 4194304.0,
  "bytes_out_per_sec": 838860.8
}`

func TestLoadEntriesExtractsGatedMetrics(t *testing.T) {
	gates := DefaultLoadGates()
	entries, err := LoadEntries([]byte(sampleReport), gates, "c0ffee", "2026-08-09")
	if err != nil {
		t.Fatalf("LoadEntries: %v", err)
	}
	if len(entries) != len(gates) {
		t.Fatalf("entries = %d, want %d", len(entries), len(gates))
	}
	want := map[string]float64{
		"load-req-s":       32.0,
		"load-p50-ms":      1.2,
		"load-p99-ms":      85.0,
		"load-cache-hit":   0.91,
		"load-errors":      0,
		"load-bytes-in-s":  4194304.0,
		"load-bytes-out-s": 838860.8,
	}
	for _, e := range entries {
		if e.Commit != "c0ffee" || e.Date != "2026-08-09" {
			t.Errorf("entry %s: wrong commit/date: %+v", e.Benchmark, e)
		}
		if v, ok := want[e.Benchmark]; !ok || e.Value != v {
			t.Errorf("entry %s = %v, want %v", e.Benchmark, e.Value, v)
		}
		if e.Ratio != 0 {
			t.Errorf("entry %s carries a pair ratio %v", e.Benchmark, e.Ratio)
		}
	}
	if err := CheckLoad(entries, gates); err != nil {
		t.Fatalf("healthy report failed gates: %v", err)
	}
}

func TestLoadEntriesMissingFieldIsError(t *testing.T) {
	if _, err := LoadEntries([]byte(`{"mode":"replay"}`), DefaultLoadGates(), "c", "d"); err == nil {
		t.Fatal("report without gated metrics accepted")
	}
	if _, err := LoadEntries([]byte(`not json`), DefaultLoadGates(), "c", "d"); err == nil {
		t.Fatal("garbage report accepted")
	}
}

func TestCheckLoadEnforcesFloorsAndCeilings(t *testing.T) {
	gates := []LoadGate{
		{Name: "load-req-s", Field: "req_per_sec", Unit: "req/s", Min: 3, HasMin: true},
		{Name: "load-p99-ms", Field: "latency_ms.p99", Unit: "ms", Max: 100, HasMax: true},
		{Name: "load-errors", Field: "errors", Unit: "count", Max: 0, HasMax: true},
	}
	ok := []Entry{
		{Benchmark: "load-req-s", Value: 3},
		{Benchmark: "load-p99-ms", Value: 100},
		{Benchmark: "load-errors", Value: 0},
	}
	if err := CheckLoad(ok, gates); err != nil {
		t.Fatalf("boundary values failed: %v", err)
	}

	cases := []struct {
		name    string
		entries []Entry
		msg     string
	}{
		{"req/s floor", []Entry{{Benchmark: "load-req-s", Value: 2.9}}, "below floor"},
		{"p99 ceiling", []Entry{{Benchmark: "load-p99-ms", Value: 101}}, "above ceiling"},
		{"error ceiling", []Entry{{Benchmark: "load-errors", Value: 1}}, "above ceiling"},
	}
	for _, c := range cases {
		err := CheckLoad(c.entries, gates)
		if err == nil {
			t.Errorf("%s: regression passed", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s: error %q missing %q", c.name, err, c.msg)
		}
	}
}

// TestLoadEntriesAppendAlongsidePairs: load metrics and pair ratios share
// one history file without clobbering each other, and a CI re-run replaces
// its own commit's load entries.
func TestLoadEntriesAppendAlongsidePairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.json")
	pairs := []Entry{{Commit: "c1", Date: "d", Benchmark: "vm-step", Ratio: 2.5}}
	if err := Append(path, pairs); err != nil {
		t.Fatalf("append pairs: %v", err)
	}
	loads, err := LoadEntries([]byte(sampleReport), DefaultLoadGates(), "c1", "d")
	if err != nil {
		t.Fatalf("LoadEntries: %v", err)
	}
	if err := Append(path, loads); err != nil {
		t.Fatalf("append loads: %v", err)
	}
	if err := Append(path, loads); err != nil { // CI re-run
		t.Fatalf("re-append loads: %v", err)
	}

	history, err := Read(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if want := 1 + len(loads); len(history) != want {
		t.Fatalf("history has %d entries, want %d (re-run must replace, not double)", len(history), want)
	}
	var ratio, value int
	for _, e := range history {
		if e.Ratio != 0 {
			ratio++
		}
		if e.Value != 0 || e.Unit != "" {
			value++
		}
	}
	if ratio != 1 || value != len(loads) {
		t.Errorf("ratio/value entries = %d/%d, want 1/%d", ratio, value, len(loads))
	}
}
