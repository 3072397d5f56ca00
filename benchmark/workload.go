package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

// runConfig is what one benchmark run is given. Everything a workload
// does is a function of these values and nothing else, so two runs
// with equal configs see equal inputs.
type runConfig struct {
	seed int64
	// seconds is the wall-clock budget of the measured phase: segments
	// keep running until it is spent. Zero ends the phase with the
	// deterministic window.
	seconds float64
	// detSegs is the length, in segments, of the deterministic window
	// that follows warm-up. Latencies, memory, allocations and the
	// traced counters are taken over exactly this window, so they
	// repeat bit for bit at one seed however fast the host is.
	detSegs int
	// scale shrinks every segment (and warm-up) for the unit test.
	scale float64
	// setups is how many times set-up is performed; the last one is
	// measured on, the median time is reported.
	setups int
	// traced turns on the program's metrics registry and causal tracer
	// and collects the per-layer counts.
	traced bool
	// partitions overrides a workload's kernel partition count when > 0
	// (the sim.group_p2_speedup probe).
	partitions int
	// profile, when non-nil, receives a CPU profile of the measured phase.
	profile *bytes.Buffer
}

func (rc runConfig) withDefaults() runConfig {
	if rc.scale <= 0 {
		rc.scale = 1
	}
	if rc.detSegs <= 0 {
		rc.detSegs = detSegsFor(rc.seconds)
	}
	if rc.setups <= 0 {
		rc.setups = 1
	}
	return rc
}

// detSegsFor sizes the deterministic window for a budget: about a
// quarter of the segments a run of that length completes on the machine
// the segments were sized on (2 cores, 2.1 GHz), and never fewer than
// two.
func detSegsFor(seconds float64) int {
	if n := int(seconds / 2); n > 2 {
		return n
	}
	return 2
}

// workload is one named input set.
type workload struct {
	name string
	why  string
	// partitioned marks a workload on the partitioned kernel, which the
	// traced run also times at two partitions.
	partitioned bool
	run         func(rc runConfig) (*result, error)
}

// result is everything one run of one workload measured.
type result struct {
	attempted uint64
	failed    uint64
	problems  []string // failed output checks; empty means correct

	// Measured phase: every segment, deterministic window included.
	segNsPerOp []float64 // wall ns per acked op, one per segment
	setupS     []float64 // one per set-up performed
	hostMemMB  float64
	gcCycles   uint32
	ops        uint64 // operations acknowledged
	bytes      uint64 // client payload bytes acknowledged
	events     uint64 // kernel events
	simNs      int64  // simulated ns

	// Deterministic window: the first detSegs segments. With a zero
	// seconds budget it is the whole measured phase, and then every
	// sim-clock figure above repeats exactly at one seed too.
	detOps       uint64
	detSimNs     int64
	detWallNs    float64
	detEvents    uint64
	allocsOp     float64 // Mallocs per acked op
	lat          []int64 // commit latencies in sim ns
	unavailMs    float64
	eventsAtEnd  uint64  // Cluster.EventsProcessed at the window's end
	genLateNsMax int64   // open-loop generator lateness
	layer        metrics // per-layer counts of a traced run
}

// metrics maps a metric name to its value.
type metrics map[string]float64

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// endToEnd derives the end-to-end metrics from a run.
func (r *result) endToEnd() metrics {
	simS := float64(r.simNs) / 1e9
	return metrics{
		"wall_ns_per_op":   median(r.segNsPerOp),
		"events_per_op":    float64(r.events) / float64(r.ops),
		"host_mem_mb":      r.hostMemMB,
		"setup_s":          median(r.setupS),
		"sim_ops_per_s":    float64(r.ops) / simS,
		"sim_goodput_gbps": float64(r.bytes) / simS / 1e9,
	}
}

// windowMetrics derives the per-layer metrics that come from the
// deterministic window of an untraced run.
func (r *result) windowMetrics() metrics {
	sort.Slice(r.lat, func(i, j int) bool { return r.lat[i] < r.lat[j] })
	return metrics{
		"sim.commit_p50_ns":      float64(nearestRank(r.lat, 50)),
		"sim.commit_p99_ns":      float64(nearestRank(r.lat, 99)),
		"sim.commit_samples":     float64(len(r.lat)),
		"sim.unavail_ms":         r.unavailMs,
		"sim.events_per_s":       float64(r.detEvents) / (r.detWallNs / 1e9),
		"sim.sim_ns_per_wall_ns": float64(r.detSimNs) / r.detWallNs,
		"runtime.allocs_per_op":  r.allocsOp,
		"bench.gen_late_ns_max":  float64(r.genLateNsMax),
	}
}

// memMark is a reading of the allocator's counters.
type memMark struct {
	mallocs uint64
	gc      uint32
}

func readMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memMark{mallocs: ms.Mallocs, gc: ms.NumGC}
}

// liveHeapMB collects and reports the heap still in use. Called while
// the measured cluster is reachable, it is the memory the program needs
// for the workload rather than what the collector happened to leave.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// startProfile begins a CPU profile into buf (nil: none) and returns
// the function that ends it.
func startProfile(buf *bytes.Buffer) (stop func(), err error) {
	if buf == nil {
		return func() {}, nil
	}
	if err := pprof.StartCPUProfile(buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return pprof.StopCPUProfile, nil
}

// payloadPool generates n payloads of size bytes filled from rng. The
// first eight bytes act as a tag the output check chains over. Closed
// loops cycle through the pool, so the program only ever sees bytes
// made here, before the clock starts. Sizes are fixed, as in the
// paper's experiments: entries of varying size leave stale bytes of
// other alignments in the wrapped log ring, whose length fields make
// the replica's poller checksum long spans of garbage (about 2x host
// cost per operation at 64 B) and would hide every other layer.
func payloadPool(rng *rand.Rand, n, size int) [][]byte {
	pool := make([][]byte, n)
	for i := range pool {
		pool[i] = make([]byte, size)
		rng.Read(pool[i])
	}
	return pool
}

// chain folds one applied operation into a replica's running hash. It
// is what every replica's OnApply computes and what the benchmark
// recomputes over the operations it issued; equal chains at equal
// counts mean the replica applied exactly the issued sequence.
func chain(h uint64, op []byte) uint64 {
	var tag uint64
	if len(op) >= 8 {
		tag = binary.LittleEndian.Uint64(op)
	}
	return (h ^ tag ^ uint64(len(op))<<48) * 1099511628211
}

// deadlineAfter converts the seconds budget into a wall-clock deadline.
func deadlineAfter(start time.Time, seconds float64) time.Time {
	return start.Add(time.Duration(seconds * float64(time.Second)))
}
