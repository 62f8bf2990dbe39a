package telemetry_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/telemetry/telemetryhttp"
)

// TestServeMetricsAndPprof checks the HTTP exposition end to end. The
// endpoint lives in telemetryhttp so the registry does not link the network
// stack; the test stays beside the registry it exposes.
func TestServeMetricsAndPprof(t *testing.T) {
	r := telemetry.NewRegistry()
	r.Counter("up_total", "").Inc()
	addr, shutdown, err := telemetryhttp.Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", addr, path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	if body := get("/metrics"); !strings.Contains(body, "up_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
