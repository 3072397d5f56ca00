package p4ce

// Facade-level tracing tests: the full causal loop (client submit →
// leader → NIC → switch → replicas → gather → commit) observed through
// the cluster API, plus the three properties the subsystem promises —
// tracing is a pure observer (identical event sequence on and off),
// exports are deterministic byte for byte, and trace IDs never cross
// shard boundaries.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"p4ce/internal/otrace"
)

// failWithFlightDump writes the cluster's flight recorder and Perfetto
// trace to $P4CE_FLIGHT_DIR (CI uploads that directory as an artifact)
// or the test's temp dir, then fails the test. Safety-invariant
// failures call this so a red run ships its own post-mortem.
func failWithFlightDump(t *testing.T, cl *Cluster, label, format string, args ...any) {
	t.Helper()
	dir := os.Getenv("P4CE_FLIGHT_DIR")
	if dir == "" || os.MkdirAll(dir, 0o755) != nil {
		dir = t.TempDir()
	}
	if f, err := os.Create(filepath.Join(dir, "p4ce-flight-"+label+".txt")); err == nil {
		if err := cl.DumpFlightRecorder(f); err != nil {
			t.Logf("flight dump: %v", err)
		}
		f.Close()
		t.Logf("flight recorder dumped to %s", f.Name())
	}
	if f, err := os.Create(filepath.Join(dir, "p4ce-trace-"+label+".json")); err == nil {
		if err := cl.ExportTrace(f); err != nil {
			t.Logf("trace dump: %v", err)
		}
		f.Close()
		t.Logf("perfetto trace dumped to %s", f.Name())
	}
	t.Fatalf(format, args...)
}

// tracedCommitN commits count entries on a traced cluster and returns it.
func tracedCommitN(t *testing.T, mode Mode, nodes, count int, seed int64) *Cluster {
	t.Helper()
	cl := NewCluster(Options{Nodes: nodes, Mode: mode, Seed: seed, EnableTracing: true})
	leader, err := cl.RunUntilLeader(200 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for i := 0; i < count; i++ {
		if err := leader.Propose([]byte(fmt.Sprintf("cmd-%d", i)), func(err error) {
			if err != nil {
				t.Fatalf("commit: %v", err)
			}
			committed++
		}); err != nil {
			t.Fatal(err)
		}
	}
	cl.Run(50 * time.Millisecond)
	if committed != count {
		t.Fatalf("%v: committed %d of %d", mode, committed, count)
	}
	return cl
}

func TestTracingFullLoopP4CE(t *testing.T) {
	cl := tracedCommitN(t, ModeP4CE, 3, 50, 7)
	tr := cl.Tracer()
	if !tr.Enabled() {
		t.Fatal("tracer disabled despite EnableTracing")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	recs := tr.Completed()
	// The adaptive batcher coalesces back-to-back proposals into one
	// traced batch entry, so count carried client operations, not records.
	var clientOps int
	for _, r := range recs {
		if r.Noop {
			continue
		}
		clientOps += r.Ops
		var sum int64
		for i := 0; i < len(otrace.StageNames); i++ {
			if r.Stage(i) < 0 {
				t.Fatalf("op %#x stage %s negative: %d", uint64(r.Trace), otrace.StageNames[i], r.Stage(i))
			}
			sum += r.Stage(i)
		}
		if sum != r.E2E() {
			t.Fatalf("op %#x stages sum %d != e2e %d", uint64(r.Trace), sum, r.E2E())
		}
		if r.E2E() <= 0 {
			t.Fatalf("op %#x non-positive e2e %d", uint64(r.Trace), r.E2E())
		}
	}
	if clientOps < 50 {
		t.Fatalf("traced %d client ops, want >= 50", clientOps)
	}
	// The accelerated path must attribute real time to the switch: at
	// least one committed op saw a nonzero switch-pipeline or gather-wait
	// stage (boundaries B2..B4 came from switch marks, not fallbacks).
	sawSwitch := false
	for _, r := range recs {
		if !r.Noop && (r.Stage(2) > 0 || r.Stage(4) > 0) {
			sawSwitch = true
			break
		}
	}
	if !sawSwitch {
		t.Fatal("no op attributed any time to the switch stages in P4CE mode")
	}
}

func TestTracingMuModeZeroWidthSwitchStages(t *testing.T) {
	cl := tracedCommitN(t, ModeMu, 3, 30, 7)
	tr := cl.Tracer()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range tr.Completed() {
		if r.Noop {
			continue
		}
		n += r.Ops
		// No switch in the path: the switch-pipeline stage must be
		// zero-width (B2 falls back to the first replica's receive, B3
		// collapses onto it).
		if r.Stage(2) != 0 {
			t.Fatalf("op %#x has switch-pipeline %dns in Mu mode", uint64(r.Trace), r.Stage(2))
		}
		if r.E2E() <= 0 || r.Stage(3) <= 0 {
			t.Fatalf("op %#x: e2e=%d replica-write=%d, want both positive", uint64(r.Trace), r.E2E(), r.Stage(3))
		}
	}
	if n < 30 {
		t.Fatalf("traced %d client ops, want >= 30", n)
	}
}

// TestTracingIsPureObserver pins the central design claim: enabling
// tracing changes no kernel event — a traced run replays the untraced
// event sequence exactly.
func TestTracingIsPureObserver(t *testing.T) {
	run := func(enable bool) (uint64, uint64) {
		cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 42, EnableTracing: enable})
		leader, err := cl.RunUntilLeader(200 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		var commits uint64
		for i := 0; i < 40; i++ {
			_ = leader.Propose([]byte(fmt.Sprintf("op-%d", i)), func(err error) {
				if err == nil {
					commits++
				}
			})
		}
		cl.Run(20 * time.Millisecond)
		return cl.EventsProcessed(), commits
	}
	evOff, cOff := run(false)
	evOn, cOn := run(true)
	if evOff != evOn || cOff != cOn {
		t.Fatalf("tracing perturbed the simulation: events %d vs %d, commits %d vs %d",
			evOff, evOn, cOff, cOn)
	}
}

// TestTraceExportDeterministic demands byte-identical Perfetto JSON and
// flight dumps from two same-seed runs.
func TestTraceExportDeterministic(t *testing.T) {
	export := func() (string, string) {
		cl := tracedCommitN(t, ModeP4CE, 3, 40, 11)
		var trace, flight bytes.Buffer
		if err := cl.ExportTrace(&trace); err != nil {
			t.Fatal(err)
		}
		if err := cl.DumpFlightRecorder(&flight); err != nil {
			t.Fatal(err)
		}
		return trace.String(), flight.String()
	}
	t1, f1 := export()
	t2, f2 := export()
	if t1 != t2 {
		t.Fatal("same seed produced different Perfetto exports")
	}
	if f1 != f2 {
		t.Fatal("same seed produced different flight dumps")
	}
	if len(t1) == 0 || len(f1) == 0 {
		t.Fatal("empty export")
	}
}

// TestShardedTraceIsolation runs a multi-group cluster under a keyed
// workload and proves trace IDs stay inside the shard that minted them.
func TestShardedTraceIsolation(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Shards: 3, Mode: ModeP4CE, Seed: 13, EnableTracing: true})
	if _, err := cl.RunUntilAllLeaders(500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	router := cl.NewRouter()
	for i := 0; i < 150; i++ {
		key := fmt.Sprintf("key-%04d", i)
		cl.Shard(cl.ShardForKey(key)).After(time.Duration(i)*30*time.Microsecond, func() {
			router.SubmitKV(key, "v", func(error) {})
		})
	}
	cl.Run(30 * time.Millisecond)

	tr := cl.Tracer()
	// Validate proves span-level isolation: no shard-owned component ring
	// holds a trace minted by another shard.
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, r := range tr.Completed() {
		if got := otrace.ShardOfID(r.Trace); got != r.Shard {
			t.Fatalf("op %#x reports shard %d, ID encodes %d", uint64(r.Trace), r.Shard, got)
		}
		seen[r.Shard]++
	}
	if len(seen) < 2 {
		t.Fatalf("workload exercised %d shards (%v), want >= 2", len(seen), seen)
	}
	// Per-shard components exist and carry only their own traffic (the
	// names are prefixed s<shard>/ by construction).
	comps := 0
	for _, c := range tr.Components() {
		if c.Shard() >= 0 {
			comps++
		}
	}
	if comps == 0 {
		t.Fatal("no shard-owned components registered")
	}
}

// TestTracingDisabledByDefault keeps the zero-cost default honest: no
// tracer, nil-safe accessors, empty-but-valid exports.
func TestTracingDisabledByDefault(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Mode: ModeP4CE, Seed: 3})
	if cl.Tracer().Enabled() {
		t.Fatal("tracer enabled without EnableTracing")
	}
	var buf bytes.Buffer
	if err := cl.ExportTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("traceEvents")) {
		t.Fatalf("disabled export = %q", buf.String())
	}
	buf.Reset()
	if err := cl.DumpFlightRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("disabled")) {
		t.Fatalf("disabled flight dump = %q", buf.String())
	}
}
