package chaos_test

// Scenario suite: every named chaos scenario runs against a full
// simulated cluster (machines, NICs, switch, consensus) under a
// continuous proposal workload, with three invariants checked at the
// horizon:
//
//  1. liveness — the cluster is still committing after the fault window
//     (or failed over per Mu and then resumed);
//  2. safety — no committed-entry divergence: every log index applied
//     on more than one machine carries identical bytes;
//  3. bounded recovery — retransmissions stay far from storm territory.
//
// Each scenario also runs twice from the same (kernel, chaos) seeds and
// must produce bit-identical fingerprints: the whole stack, faults
// included, is deterministic. Fault injection is partition-aware (each
// fault schedules on its target port's domain), so the same harness
// runs at any partition count.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	p4ce "p4ce"
	"p4ce/internal/chaos"
)

// scenarioRun drives one cluster through one scenario and collects
// everything the invariants and the determinism fingerprint need.
type scenarioRun struct {
	cl        *p4ce.Cluster
	eng       *chaos.Engine
	horizon   time.Duration
	start     time.Duration // sim time the scenario was applied
	committed int
	failed    int
	lastAt    time.Duration // sim time of the last commit
	applied   []map[uint64]string
	leaders   map[int]bool
}

// scenarioOptions picks the testbed a scenario needs: fabric-flagged
// scenarios get a five-machine, two-rack leaf-spine cluster with two
// spines and a standby switch (machines 0,2,4 behind ToR 0 — a
// majority — and 1,3 behind ToR 1, the one the scenarios kill);
// everything else keeps the classic three machines on one switch.
func scenarioOptions(t *testing.T, name string, kernelSeed int64) p4ce.Options {
	t.Helper()
	sc, ok := chaos.Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	// Telemetry rides along on every scenario the same way tracing
	// does: the sampler is consensus-neutral, and the SLO alert log is
	// itself under test — checkInvariants demands it bracket the
	// scenario's fault window.
	opts := p4ce.Options{Nodes: 3, Mode: p4ce.ModeP4CE, Seed: kernelSeed, EnableTracing: true, EnableTelemetry: true}
	if sc.Fabric {
		opts.Nodes = 5
		opts.Topology = &p4ce.Topology{Racks: 2, Spines: 2, Standby: true}
	}
	return opts
}

func runScenario(t *testing.T, name string, kernelSeed, chaosSeed int64, partitions int) *scenarioRun {
	t.Helper()
	r := &scenarioRun{leaders: make(map[int]bool)}
	// Causal tracing rides along on every scenario: the tracer is a pure
	// observer (no kernel events, no wire bytes), so the determinism
	// fingerprints are identical with it on, and an invariant failure can
	// dump the flight recorder for the post-mortem.
	opts := scenarioOptions(t, name, kernelSeed)
	opts.Partitions = partitions
	r.cl = p4ce.NewCluster(opts)
	for _, n := range r.cl.Nodes() {
		m := make(map[uint64]string)
		r.applied = append(r.applied, m)
		n.OnApply(func(index uint64, data []byte) { m[index] = string(data) })
		n.OnLeaderChange(func(_ uint64, leaderID int) { r.leaders[leaderID] = true })
	}
	if _, err := r.cl.RunUntilLeader(200 * time.Millisecond); err != nil {
		t.Fatalf("%s: no leader before faults: %v", name, err)
	}

	// Open-loop workload: one proposal every 100 µs to whoever leads,
	// for the whole horizon, on the shard's domain and clock. Failures
	// (lost leadership, no leader) are expected mid-fault and only
	// counted.
	sh := r.cl.Shard(0)
	seq := 0
	var tick func()
	tick = func() {
		if l := r.cl.Leader(); l != nil {
			seq++
			payload := []byte(fmt.Sprintf("entry-%d", seq))
			_ = l.Propose(payload, func(err error) {
				if err != nil {
					r.failed++
					return
				}
				r.committed++
				r.lastAt = sh.Now()
			})
		}
		sh.After(100*time.Microsecond, tick)
	}
	sh.After(100*time.Microsecond, tick)

	eng, horizon, err := r.cl.ApplyChaosScenario(name, chaosSeed, nil)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	r.eng, r.horizon, r.start = eng, horizon, r.cl.Now()
	r.cl.Run(horizon)
	return r
}

// checkInvariants asserts liveness, safety, bounded recovery and span
// causality. Any violation dumps the flight recorder (and the Perfetto
// trace) before failing, so the post-mortem starts with the last
// operations in flight rather than a bare assertion message.
func (r *scenarioRun) checkInvariants(t *testing.T, name string) {
	t.Helper()
	if r.committed == 0 {
		r.failDump(t, name, "nothing committed across the whole horizon")
	}
	// Commits must still be flowing near the horizon — i.e. after every
	// fault window closed and recovery completed. The tail is measured
	// from scenario application (the cluster spends ~40 ms reaching its
	// first accelerated leader before faults start).
	if tail := r.start + r.horizon - r.horizon/4; r.lastAt < tail {
		r.failDump(t, name, fmt.Sprintf("last commit at %v, want after %v (cluster never recovered)",
			r.lastAt, tail))
	}
	// No committed-entry divergence: any index applied on two machines
	// must carry the same bytes.
	for i := 0; i < len(r.applied); i++ {
		for j := i + 1; j < len(r.applied); j++ {
			for idx, data := range r.applied[i] {
				if other, ok := r.applied[j][idx]; ok && other != data {
					r.failDump(t, name, fmt.Sprintf("divergence at index %d: node%d=%q node%d=%q",
						idx, i, data, j, other))
				}
			}
		}
	}
	// Bounded retransmit storm: recovery is allowed plenty of go-back-N
	// rounds (bursty loss on every link retransmits constantly), but a
	// runaway feedback loop would blow far past this.
	var retransmits uint64
	for _, n := range r.cl.Nodes() {
		retransmits += n.NICStats().Retransmits
	}
	if retransmits > 50_000 {
		r.failDump(t, name, fmt.Sprintf("%d retransmits: storm", retransmits))
	}
	// Span causality: every traced operation must have monotone stage
	// boundaries that sum to its end-to-end latency, and no span may
	// land in another shard's component — across every fault schedule
	// the sweep throws at the cluster.
	if err := r.cl.Tracer().Validate(); err != nil {
		r.failDump(t, name, fmt.Sprintf("trace causality: %v", err))
	}
	// Telemetry bracketing: the SLO alert log must bracket the injected
	// fault window — the on-call page fires during the fault (not
	// before it: no false positives in the healthy lead-in), and every
	// alert has cleared by the horizon (the pager stands down once
	// recovery completes). This turns every chaos scenario into an
	// end-to-end test of the observability stack itself.
	sc, ok := chaos.Lookup(name)
	if !ok {
		t.Fatalf("unknown scenario %q", name)
	}
	alerts := r.cl.Telemetry().Alerts()
	r.dumpTelemetry(t, name)
	if len(alerts) == 0 {
		r.failDump(t, name, "no SLO alert fired across the whole fault window")
	}
	faultStart := r.start + time.Duration(sc.FaultStart)
	faultEnd := r.start + time.Duration(sc.FaultEnd)
	first := time.Duration(alerts[0].AtNs)
	if !alerts[0].Firing {
		r.failDump(t, name, fmt.Sprintf("alert log starts with a clear: %v", alerts[0]))
	}
	if first <= faultStart {
		r.failDump(t, name, fmt.Sprintf("first alert %v fired at %v, before the fault window opened at %v",
			alerts[0], first, faultStart))
	}
	if first > faultEnd {
		r.failDump(t, name, fmt.Sprintf("first alert %v fired at %v, after the fault window closed at %v",
			alerts[0], first, faultEnd))
	}
	if r.cl.Telemetry().Firing() {
		r.failDump(t, name, fmt.Sprintf("alerts still firing at the horizon: %v", alerts))
	}
}

// dumpTelemetry writes the scenario's timeline and alert log to
// $P4CE_TELEMETRY_DIR when set (CI uploads that directory as an
// artifact); it is silent otherwise.
func (r *scenarioRun) dumpTelemetry(t *testing.T, name string) {
	t.Helper()
	dir := os.Getenv("P4CE_TELEMETRY_DIR")
	if dir == "" || os.MkdirAll(dir, 0o755) != nil {
		return
	}
	if f, err := os.Create(filepath.Join(dir, name+"-timeline.json")); err == nil {
		if err := r.cl.ExportTelemetryJSON(f); err != nil {
			t.Logf("telemetry dump: %v", err)
		}
		f.Close()
	}
	if f, err := os.Create(filepath.Join(dir, name+"-alerts.txt")); err == nil {
		for _, a := range r.cl.Telemetry().Alerts() {
			fmt.Fprintln(f, a)
		}
		f.Close()
	}
}

// fingerprint reduces a run to a string two same-seed runs must agree
// on byte for byte.
func (r *scenarioRun) fingerprint() string {
	s := fmt.Sprintf("events=%d committed=%d failed=%d lastAt=%v chaos=%+v leaders=%v",
		r.cl.EventsProcessed(), r.committed, r.failed, r.lastAt, r.eng.Stats, sortedKeys(r.leaders))
	for i, n := range r.cl.Nodes() {
		s += fmt.Sprintf(" node%d{commit=%d applied=%d term=%d retx=%d}",
			i, n.CommitIndex(), len(r.applied[i]), n.Term(), n.NICStats().Retransmits)
	}
	// The full alert log rides in the fingerprint: two same-seed runs —
	// or the same seed at different partition counts — must page the
	// on-call at identical instants with identical burn rates.
	for _, a := range r.cl.Telemetry().Alerts() {
		s += " alert{" + a.String() + "}"
	}
	return s
}

func sortedKeys(m map[int]bool) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	for i := 0; i < len(ks); i++ {
		for j := i + 1; j < len(ks); j++ {
			if ks[j] < ks[i] {
				ks[i], ks[j] = ks[j], ks[i]
			}
		}
	}
	return ks
}

// checkDeterminism replays the scenario from identical seeds and
// demands an identical fingerprint.
func checkDeterminism(t *testing.T, name string, first *scenarioRun) {
	t.Helper()
	replay := runScenario(t, name, 1234, 99, 1)
	if a, b := first.fingerprint(), replay.fingerprint(); a != b {
		t.Fatalf("%s: same seeds, different runs:\n  run1: %s\n  run2: %s", name, a, b)
	}
}

func TestScenarioLossyGather(t *testing.T) {
	r := runScenario(t, "lossy-gather", 1234, 99, 1)
	r.checkInvariants(t, "lossy-gather")
	if r.eng.Stats.ScriptedDrops == 0 {
		t.Fatal("loss chain never dropped a frame")
	}
	if r.eng.Stats.JitteredSends == 0 {
		t.Fatal("jitter never delayed a frame")
	}
	checkDeterminism(t, "lossy-gather", r)
}

func TestScenarioReplicaFlap(t *testing.T) {
	r := runScenario(t, "replica-flap", 1234, 99, 1)
	r.checkInvariants(t, "replica-flap")
	if r.eng.Stats.NodeOutages != 2 {
		t.Fatalf("NodeOutages = %d, want 2", r.eng.Stats.NodeOutages)
	}
	// The flapped replica (highest ID) must be back in the replication
	// set by the horizon: the leader re-admits recovered machines.
	leader := r.cl.Leader()
	if leader == nil {
		t.Fatal("no leader at horizon")
	}
	if got := leader.ReplicationPaths(); got != len(r.cl.Nodes())-1 {
		t.Fatalf("leader replicates to %d machines at horizon, want %d (flapped replica re-admitted)",
			got, len(r.cl.Nodes())-1)
	}
	checkDeterminism(t, "replica-flap", r)
}

func TestScenarioLeaderPartition(t *testing.T) {
	r := runScenario(t, "leader-partition", 1234, 99, 1)
	r.checkInvariants(t, "leader-partition")
	// Mu's failover rule: with machine 0 unreachable the survivors must
	// have elected machine 1, and on heal the lowest live identifier
	// takes the lead back.
	if !r.leaders[1] {
		t.Fatalf("machine 1 never led during the partition (leaders seen: %v)", sortedKeys(r.leaders))
	}
	leader := r.cl.Leader()
	if leader == nil || leader.ID() != 0 {
		t.Fatalf("leader at horizon = %v, want machine 0 back in charge", leader)
	}
	checkDeterminism(t, "leader-partition", r)
}

func TestScenarioSpineLoss(t *testing.T) {
	r := runScenario(t, "spine-loss", 1234, 99, 1)
	r.checkInvariants(t, "spine-loss")
	if r.eng.Stats.SwitchCrashes != 1 {
		t.Fatalf("SwitchCrashes = %d, want 1", r.eng.Stats.SwitchCrashes)
	}
	// The fabric supervisor rerouted off the dead spine: spine 0 is
	// marked dead and every route that crossed it now rides spine 1.
	if live := r.cl.Fabric().LiveSpine(); live != 1 {
		t.Fatalf("LiveSpine = %d after spine-loss, want 1", live)
	}
	// The leader's ToR held a local majority throughout, so the
	// accelerated path never had to fall back for quorum.
	if leader := r.cl.Leader(); leader == nil {
		t.Fatal("no leader at horizon")
	}
	checkDeterminism(t, "spine-loss", r)
}

func TestScenarioRackPartition(t *testing.T) {
	r := runScenario(t, "rack-partition", 1234, 99, 1)
	r.checkInvariants(t, "rack-partition")
	if r.eng.Stats.Partitions != 1 {
		t.Fatalf("Partitions = %d, want 1", r.eng.Stats.Partitions)
	}
	// Rack 1's replicas must be back in the replication set once the
	// core heals: the leader re-admits them and refills their logs.
	leader := r.cl.Leader()
	if leader == nil {
		t.Fatal("no leader at horizon")
	}
	if got := leader.ReplicationPaths(); got != len(r.cl.Nodes())-1 {
		t.Fatalf("leader replicates to %d machines at horizon, want %d (rack 1 re-admitted)",
			got, len(r.cl.Nodes())-1)
	}
	checkDeterminism(t, "rack-partition", r)
}

func TestScenarioTorFailoverUnderLoad(t *testing.T) {
	r := runScenario(t, "tor-failover-under-load", 1234, 99, 1)
	r.checkInvariants(t, "tor-failover-under-load")
	if r.eng.Stats.SwitchCrashes != 1 {
		t.Fatalf("SwitchCrashes = %d, want 1", r.eng.Stats.SwitchCrashes)
	}
	// The standby must have adopted the dead ToR's rack.
	if got := r.cl.Fabric().AdoptedRack(); got != 1 {
		t.Fatalf("AdoptedRack = %d, want 1", got)
	}
	// And the orphaned rack's machines must be reachable again through
	// their standby legs: re-admitted, logs refilled.
	leader := r.cl.Leader()
	if leader == nil {
		t.Fatal("no leader at horizon")
	}
	if got := leader.ReplicationPaths(); got != len(r.cl.Nodes())-1 {
		t.Fatalf("leader replicates to %d machines at horizon, want %d (rack 1 back via standby)",
			got, len(r.cl.Nodes())-1)
	}
	checkDeterminism(t, "tor-failover-under-load", r)
}

func TestScenarioSwitchReboot(t *testing.T) {
	r := runScenario(t, "switch-reboot", 1234, 99, 1)
	r.checkInvariants(t, "switch-reboot")
	if r.eng.Stats.SwitchReboots != 1 {
		t.Fatalf("SwitchReboots = %d, want 1", r.eng.Stats.SwitchReboots)
	}
	if r.cl.SwitchCrashed() {
		t.Fatal("switch still down at horizon")
	}
	// The outage outlives the NIC retry budget, so the leader must have
	// fallen back to direct replication and then re-accelerated through
	// a freshly programmed switch group.
	leader := r.cl.Leader()
	if leader == nil {
		t.Fatal("no leader at horizon")
	}
	if !leader.Accelerated() {
		t.Fatal("leader never re-accelerated after the switch came back")
	}
	checkDeterminism(t, "switch-reboot", r)
}
