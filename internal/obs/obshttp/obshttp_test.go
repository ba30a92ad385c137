package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestHandlerServesMetricsAndPprof: both metrics formats carry the
// registry's counter, and every pprof endpoint answers.
func TestHandlerServesMetricsAndPprof(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("requests_total").Add(7)
	srv := httptest.NewServer(Handler(reg))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "requests_total 7") {
		t.Errorf("/metrics lacks the counter:\n%s", body)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Fatalf("/metrics.json: %v", err)
	}
	if len(snap.Counters) != 1 || snap.Counters[0].Value != 7 {
		t.Errorf("/metrics.json counters = %+v", snap.Counters)
	}
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/profile?seconds=1",
		"/debug/pprof/symbol",
		"/debug/pprof/trace?seconds=0.01",
	} {
		if get(path) == "" {
			t.Errorf("GET %s: empty body", path)
		}
	}
}
