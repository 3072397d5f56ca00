package main

import (
	"time"

	"p4ce"
)

// metricSpec declares one metric. BENCHMARK.json, README.md and the
// program's output are all checked against these tables by the test.
type metricSpec struct {
	name   string
	unit   string
	clock  string // "host" or "sim"; counts follow the clock that orders them
	better string // "lower" or "higher"
	bound  float64
	source string
}

// endToEndSpecs are what a user of the simulator sees: what a run
// costs on the host, and what the modelled cluster achieved. They are
// taken over the whole measured phase of an untraced run.
var endToEndSpecs = []metricSpec{
	{"wall_ns_per_op", "ns", "host", "lower", 0.25, "wall time of a segment / operations acknowledged in it, median over segments"},
	{"events_per_op", "count", "sim", "lower", 0.02, "Cluster.EventsProcessed delta / operations acknowledged"},
	{"host_mem_mb", "MB", "host", "lower", 0.10, "MemStats.HeapInuse after a collection at the end of the deterministic window, cluster still live"},
	{"setup_s", "s", "host", "lower", 0.25, "median wall time from NewCluster to the first measured operation"},
	{"sim_ops_per_s", "1/s", "sim", "higher", 0.02, "operations acknowledged / simulated seconds"},
	{"sim_goodput_gbps", "GB/s", "sim", "higher", 0.02, "client payload bytes acknowledged / simulated seconds"},
}

// perLayerSpecs carry no bound: they say where an end-to-end change
// came from. Sources: "driver" is a layer driver (layers.go), "window"
// is the deterministic window of the untraced reference run, "traced"
// is the program's own counters and spans over the same window of the
// traced run, "profile" is the traced run's CPU profile folded by layer.
var perLayerSpecs = []metricSpec{
	{"sim.schedule_step_ns", "ns", "host", "lower", 0, "driver: ScheduleArg + Step, 1000 events pending"},
	{"sim.timer_cancel_ns", "ns", "host", "lower", 0, "driver: Schedule + Timer.Stop, 1000 events pending"},
	{"sim.ticker_tick_ns", "ns", "host", "lower", 0, "driver: one Ticker tick and re-arm"},
	{"sim.group_step_ns", "ns", "host", "lower", 0, "driver: the schedule_step event on a 1-partition, 5-domain Group via RunFor"},
	{"roce.marshal_64B_ns", "ns", "host", "lower", 0, "driver: Packet.MarshalInto, 64 B write"},
	{"roce.unmarshal_64B_ns", "ns", "host", "lower", 0, "driver: UnmarshalInto, 64 B write"},
	{"roce.marshal_1KiB_ns", "ns", "host", "lower", 0, "driver: Packet.MarshalInto, 1 KiB write"},
	{"roce.unmarshal_1KiB_ns", "ns", "host", "lower", 0, "driver: UnmarshalInto, 1 KiB write"},
	{"simnet.send_deliver_ns", "ns", "host", "lower", 0, "driver: Port.Send to the peer's handler"},
	{"rnic.write_rtt_64B_ns", "ns", "host", "lower", 0, "driver: QP.PostWrite to completion, two NICs on one link"},
	{"rnic.write_rtt_4KiB_ns", "ns", "host", "lower", 0, "driver: the same with a 4-segment write"},
	{"tofino.l3_forward_ns", "ns", "host", "lower", 0, "driver: one frame host → L3Program switch → host"},
	{"tofino.mcast_copy_ns", "ns", "host", "lower", 0, "driver: one frame multicast to 4 ports, per copy"},
	{"mu.encode_entry_ns", "ns", "host", "lower", 0, "driver: EncodeEntryInto, 64 B entry"},
	{"mu.consumer_poll_ns", "ns", "host", "lower", 0, "driver: Consumer.Poll per entry over a full ring"},
	{"facade.kv_apply_ns", "ns", "host", "lower", 0, "driver: Dedup.Apply + KV.Apply of a sessioned set"},

	{"sim.commit_p50_ns", "ns", "sim", "lower", 0, "window: median commit latency (open loop: from the due time)"},
	{"sim.commit_p99_ns", "ns", "sim", "lower", 0, "window: 99th percentile commit latency"},
	{"sim.commit_samples", "count", "sim", "higher", 0, "window: latency samples behind the two percentiles"},
	{"sim.unavail_ms", "ms", "sim", "lower", 0, "window: longest interval without an acknowledged reply (median over episodes)"},
	{"sim.events_per_s", "1/s", "host", "higher", 0, "window: kernel events per wall second, untraced"},
	{"sim.sim_ns_per_wall_ns", "ratio", "host", "higher", 0, "window: simulated ns advanced per wall ns, untraced"},
	{"sim.group_p2_speedup", "ratio", "host", "higher", 0, "wall per op at Partitions 1 / at Partitions 2 (sharded-batch; 0 elsewhere)"},
	{"runtime.allocs_per_op", "count", "host", "lower", 0, "window: MemStats.Mallocs delta per operation, untraced"},
	{"runtime.gc_cycles", "count", "host", "lower", 0, "traced: MemStats.NumGC delta over the measured phase"},
	{"bench.gen_late_ns_max", "ns", "sim", "lower", 0, "window: latest an open-loop arrival was submitted after it was due"},

	{"simnet.frames_per_op", "count", "sim", "lower", 0, "traced: simnet.tx_frames / ops"},
	{"simnet.wire_bytes_per_op", "B", "sim", "lower", 0, "traced: simnet.tx_bytes / ops"},
	{"simnet.tx_dropped", "count", "sim", "lower", 0, "traced: simnet.tx_dropped"},
	{"rnic.tx_packets_per_op", "count", "sim", "lower", 0, "traced: rnic.tx_packets / ops"},
	{"rnic.retransmits", "count", "sim", "lower", 0, "traced: rnic.retransmits"},
	{"rnic.rto_fires", "count", "sim", "lower", 0, "traced: rnic.rto_fires"},
	{"rnic.credit_stalls", "count", "sim", "lower", 0, "traced: rnic.credit_stalls"},
	{"tofino.ingress_packets_per_op", "count", "sim", "lower", 0, "traced: tofino.ingress_packets / ops"},
	{"tofino.copies_per_op", "count", "sim", "lower", 0, "traced: tofino.copies / ops"},
	{"tofino.dropped", "count", "sim", "lower", 0, "traced: tofino.dropped"},
	{"p4ce.scattered_per_op", "count", "sim", "lower", 0, "traced: p4ce.scattered / ops"},
	{"p4ce.acks_absorbed_per_op", "count", "sim", "lower", 0, "traced: p4ce.acks_absorbed / ops"},
	{"p4ce.acks_forwarded_per_op", "count", "sim", "lower", 0, "traced: p4ce.acks_forwarded / ops"},
	{"p4ce.acks_up_per_op", "count", "sim", "lower", 0, "traced: p4ce.acks_up_forwarded / ops (spine crossings)"},
	{"p4ce.stale_ack_drops", "count", "sim", "lower", 0, "traced: p4ce.stale_ack_drops"},
	{"mu.ops_per_entry", "count", "sim", "higher", 0, "traced: mean of mu.batch_ops_per_entry"},
	{"mu.leader_cpu_busy_pct", "%", "sim", "lower", 0, "traced: busiest modelled host core per group, busy share of the window"},
	{"mu.view_changes", "count", "sim", "lower", 0, "traced: mu.leader_changes"},
	{"mu.fallbacks", "count", "sim", "lower", 0, "traced: mu.fallbacks"},
	{"facade.client_retries", "count", "sim", "lower", 0, "traced: Client.Retries (open loop)"},
	{"telemetry.alert_detect_ms", "ms", "sim", "lower", 0, "traced: fault to first SLO alert, median over episodes (0 without a fault)"},
	{"telemetry.alert_clear_ms", "ms", "sim", "lower", 0, "traced: fault to last alert cleared, median over episodes"},
	{"stage.leader_post_ns", "ns", "sim", "lower", 0, "traced: otrace stage 1 of the median traced operation"},
	{"stage.fabric_out_ns", "ns", "sim", "lower", 0, "traced: stage 2"},
	{"stage.switch_pipeline_ns", "ns", "sim", "lower", 0, "traced: stage 3"},
	{"stage.replica_write_ns", "ns", "sim", "lower", 0, "traced: stage 4"},
	{"stage.gather_wait_ns", "ns", "sim", "lower", 0, "traced: stage 5"},
	{"stage.commit_notify_ns", "ns", "sim", "lower", 0, "traced: stage 6"},
	{"stage.e2e_ns", "ns", "sim", "lower", 0, "traced: the same operation's submit → commit, the sum of the six"},

	{"sim.cpu_pct", "%", "host", "lower", 0, "profile: internal/sim (and container/heap under it)"},
	{"simnet.cpu_pct", "%", "host", "lower", 0, "profile: internal/simnet"},
	{"roce.cpu_pct", "%", "host", "lower", 0, "profile: internal/roce (and the ICRC under it)"},
	{"rnic.cpu_pct", "%", "host", "lower", 0, "profile: internal/rnic"},
	{"tofino.cpu_pct", "%", "host", "lower", 0, "profile: internal/tofino"},
	{"p4ce.cpu_pct", "%", "host", "lower", 0, "profile: internal/p4ce (data and control plane)"},
	{"fabric.cpu_pct", "%", "host", "lower", 0, "profile: internal/fabric"},
	{"mu.cpu_pct", "%", "host", "lower", 0, "profile: internal/mu (and the entry CRC under it)"},
	{"core.cpu_pct", "%", "host", "lower", 0, "profile: internal/core + internal/cm"},
	{"observers.cpu_pct", "%", "host", "lower", 0, "profile: metrics + otrace + telemetry + trace"},
	{"facade.cpu_pct", "%", "host", "lower", 0, "profile: the root package p4ce"},
	{"runtime.cpu_pct", "%", "host", "lower", 0, "profile: Go runtime (GC, malloc, memmove, maps)"},
	{"bench.cpu_pct", "%", "host", "lower", 0, "profile: this benchmark's generator and checker; the run fails above 5"},
	{"observers.trace_overhead_pct", "%", "host", "lower", 0, "traced vs untraced wall_ns_per_op over the window"},
}

// Injected delays, stated with every result: all latency here is the
// model's, not a network's.
const injectedDelays = "100 GbE serialisation, 300 ns link propagation, 400 ns switch pipeline, 40 ms control-plane reconfiguration"

var workloads = []workload{
	{
		name: "p4ce-small",
		why:  "5 nodes, P4CE, 64 B, closed loop 16 deep, no batching: header-dominated, 32 events/op, so per-event and per-packet cost in every layer is the work",
		run: func(rc runConfig) (*result, error) {
			return runClosedLoop(loopSpec{
				name:   "p4ce-small",
				opts:   p4ce.Options{Nodes: 5, Mode: p4ce.ModeP4CE, BatchMaxOps: 1},
				size:   64,
				depth:  16,
				window: 25 * time.Millisecond,
			}, rc)
		},
	},
	{
		name: "mu-large",
		why:  "5 nodes, Mu baseline, 4096 B, closed loop 128 deep: byte-proportional work (copies, ICRC, segmentation) and no switch program, so a dataplane change must predict no change here",
		run: func(rc runConfig) (*result, error) {
			return runClosedLoop(loopSpec{
				name:   "mu-large",
				opts:   p4ce.Options{Nodes: 5, Mode: p4ce.ModeMu, BatchMaxOps: 1},
				size:   4096,
				depth:  128,
				window: 12 * time.Millisecond,
			}, rc)
		},
	},
	{
		name:        "sharded-batch",
		partitioned: true,
		why:         "4 shards x 3 nodes, P4CE, 64 B, 64 deep over a 16-deep pipeline on the partitioned kernel: the only user of sim.Group and the adaptive batcher, 5.7 events/op, so per-op work in mu dominates",
		run: func(rc runConfig) (*result, error) {
			return runClosedLoop(loopSpec{
				name:   "sharded-batch",
				opts:   p4ce.Options{Nodes: 3, Shards: 4, Mode: p4ce.ModeP4CE, Partitions: 1, PipelineDepth: 16},
				size:   64,
				depth:  64,
				window: 5 * time.Millisecond,
			}, rc)
		},
	},
	{
		name: "fabric-failover",
		why:  "leaf-spine fabric, heartbeats, telemetry and a dedup KV on, open loop of 100 k ops/s through a retrying client, leader crashed under load: timers, go-back-N, hierarchical ACKs and the 40 ms regroup",
		run:  runFailover,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
