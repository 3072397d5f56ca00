package chaos_test

// Flight-recorder plumbing for the scenario suite: when an invariant
// trips, the failing run's last traced operations (flight recorder) and
// full Perfetto trace are written to disk before the test fails, so a
// chaos failure in CI leaves artifacts to debug from instead of just an
// assertion string. The dump directory is $P4CE_FLIGHT_DIR when set
// (CI points it at an uploaded-artifact path) and the test's temp
// directory otherwise.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	p4ce "p4ce"
)

// flightDir resolves where dumps land for this test.
func flightDir(t *testing.T) string {
	if dir := os.Getenv("P4CE_FLIGHT_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err == nil {
			return dir
		}
	}
	return t.TempDir()
}

// dumpFlight writes the cluster's flight recorder and Perfetto trace
// under dir, named after the failing scenario, and returns the flight
// dump path. Dump errors are logged, not fatal: the invariant failure
// being reported matters more than a broken dump.
func dumpFlight(t *testing.T, cl *p4ce.Cluster, dir, name string) string {
	t.Helper()
	safe := strings.ReplaceAll(name, "/", "-")
	flightPath := filepath.Join(dir, fmt.Sprintf("p4ce-flight-%s.txt", safe))
	if f, err := os.Create(flightPath); err != nil {
		t.Logf("flight dump: %v", err)
	} else {
		if err := cl.DumpFlightRecorder(f); err != nil {
			t.Logf("flight dump: %v", err)
		}
		f.Close()
		t.Logf("flight recorder dumped to %s", flightPath)
	}
	tracePath := filepath.Join(dir, fmt.Sprintf("p4ce-trace-%s.json", safe))
	if f, err := os.Create(tracePath); err != nil {
		t.Logf("trace dump: %v", err)
	} else {
		if err := cl.ExportTrace(f); err != nil {
			t.Logf("trace dump: %v", err)
		}
		f.Close()
		t.Logf("perfetto trace dumped to %s (open in https://ui.perfetto.dev)", tracePath)
	}
	return flightPath
}

// failDump dumps the run's trace artifacts and then fails the test.
func (r *scenarioRun) failDump(t *testing.T, name, msg string) {
	t.Helper()
	dumpFlight(t, r.cl, flightDir(t), name)
	t.Fatalf("%s: %s", name, msg)
}

// TestFlightDumpOnInvariantFailure proves the failure path end to end:
// the same dump helper the invariants call produces a non-empty flight
// recorder file and a parseable Perfetto trace from a real scenario
// run. (The invariants themselves hold on this run — the test exercises
// the dump, not a deliberately broken cluster.)
func TestFlightDumpOnInvariantFailure(t *testing.T) {
	r := runScenario(t, "lossy-gather", 1234, 99, 1)
	dir := t.TempDir()
	flightPath := dumpFlight(t, r.cl, dir, "lossy-gather")

	flight, err := os.ReadFile(flightPath)
	if err != nil {
		t.Fatalf("flight dump not written: %v", err)
	}
	if len(flight) == 0 {
		t.Fatal("flight dump is empty")
	}
	// The recorder must carry per-stage timings for recently committed
	// operations, not just a header.
	if !strings.Contains(string(flight), "=== otrace flight recorder ===") {
		t.Fatalf("flight dump missing header:\n%s", flight)
	}
	if !strings.Contains(string(flight), "stages=[") {
		t.Fatalf("flight dump has no finished operation records:\n%s", flight)
	}

	tracePath := filepath.Join(dir, "p4ce-trace-lossy-gather.json")
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("perfetto dump not written: %v", err)
	}
	if !strings.Contains(string(trace), `"traceEvents"`) {
		t.Fatal("perfetto dump is not a trace-event JSON document")
	}
}
