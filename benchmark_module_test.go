package p4ce_test

import (
	"os/exec"
	"path/filepath"
	"runtime"
	"testing"
)

// TestBenchmarkModuleBuilds compiles the benchmark/ module against this
// tree. It is a module of its own, so `go build ./...` here never
// reaches it, and an API change that breaks it would otherwise surface
// only when benchmark/run.sh runs.
func TestBenchmarkModuleBuilds(t *testing.T) {
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), "build", "-o", t.TempDir()+"/", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build ./... in benchmark/: %v\n%s", err, out)
	}
}
