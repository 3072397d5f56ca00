package p4ce

// Parallel-kernel integration tests: the scheduler (Options.Partitions,
// internal/sim.Group) must replay bit-identically at every partition
// count — same commits, same per-node applied histories, same event
// totals, byte-identical Perfetto trace and telemetry exports — because
// the event order is fixed by (time, domain, sequence) keys, not by
// which partition executed an event first. These tests drive their
// workloads through Shard.After/Shard.Now, the documented way to call
// into a shard's machines.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"testing"
	"time"
)

// parallelRun condenses one partitioned run into comparable form.
type parallelRun struct {
	events uint64
	acked  int
	fp     uint64 // FNV-1a over acks, applied histories, node state
	export []byte // Perfetto + telemetry JSON + OpenMetrics, compared byte for byte
}

// runPartitioned runs a fixed sharded workload on a cluster with the
// given partition count and fingerprints everything observable.
func runPartitioned(t *testing.T, partitions int) parallelRun {
	t.Helper()
	const shards = 3
	cl := NewCluster(Options{
		Nodes: 3, Shards: shards, Mode: ModeP4CE, Seed: 4242,
		Partitions: partitions, EnableTracing: true, EnableTelemetry: true,
	})
	if got, want := cl.Partitions(), max(1, partitions); got != want {
		t.Fatalf("Partitions() = %d, want %d", got, want)
	}
	type rec struct {
		idx  uint64
		data string
	}
	applied := make([][]rec, len(cl.Nodes()))
	for gi, n := range cl.Nodes() {
		gi := gi
		// Fires on the owning shard's domain; applied[gi] is touched by
		// that domain alone.
		n.OnApply(func(index uint64, data []byte) {
			applied[gi] = append(applied[gi], rec{index, string(data)})
		})
	}
	if _, err := cl.RunUntilAllLeaders(500 * time.Millisecond); err != nil {
		t.Fatalf("partitions=%d: %v", partitions, err)
	}
	acked := make([]int, shards)
	for s := 0; s < shards; s++ {
		s := s
		sh := cl.Shard(s)
		c := cl.NewClientForShard(s)
		c.RetryDelay = 500 * time.Microsecond
		seq := 0
		var tick func()
		tick = func() {
			seq++
			c.SubmitKV(fmt.Sprintf("s%d:k%03d", s, seq), "v", func(err error) {
				if err == nil {
					acked[s]++
				}
			})
			if seq < 80 {
				sh.After(60*time.Microsecond, tick)
			}
		}
		sh.After(time.Duration(s+1)*25*time.Microsecond, tick)
	}
	cl.Run(25 * time.Millisecond)

	h := fnv.New64a()
	total := 0
	for _, a := range acked {
		total += a
	}
	fmt.Fprintf(h, "events=%d acked=%v", cl.EventsProcessed(), acked)
	for gi, n := range cl.Nodes() {
		recs := applied[gi]
		sort.Slice(recs, func(a, b int) bool { return recs[a].idx < recs[b].idx })
		fmt.Fprintf(h, "|node%d commit=%d term=%d", gi, n.CommitIndex(), n.Term())
		for _, r := range recs {
			fmt.Fprintf(h, ";%d=%s", r.idx, r.data)
		}
	}
	var export bytes.Buffer
	for _, write := range []func(io.Writer) error{cl.ExportTrace, cl.ExportTelemetryJSON, cl.ExportOpenMetrics} {
		if err := write(&export); err != nil {
			t.Fatalf("partitions=%d: export: %v", partitions, err)
		}
	}
	return parallelRun{
		events: cl.EventsProcessed(),
		acked:  total,
		fp:     h.Sum64(),
		export: export.Bytes(),
	}
}

// TestParallelKernelDeterminism is the tentpole property: identical
// options and seed replay bit-identically at partition counts 1, 2 and
// 4 (and at the zero value, which means 1), and re-running any count
// reproduces itself.
func TestParallelKernelDeterminism(t *testing.T) {
	base := runPartitioned(t, 1)
	if base.acked == 0 {
		t.Fatal("no write was ever acknowledged")
	}
	for _, p := range []int{0, 2, 4} {
		got := runPartitioned(t, p)
		if got.events != base.events || got.fp != base.fp || got.acked != base.acked {
			t.Fatalf("partitions=%d diverged from partitions=1: events %d vs %d, acked %d vs %d, fp %x vs %x",
				p, got.events, base.events, got.acked, base.acked, got.fp, base.fp)
		}
		if !bytes.Equal(got.export, base.export) {
			t.Fatalf("partitions=%d: trace/telemetry exports differ from partitions=1 (%d vs %d bytes)",
				p, len(got.export), len(base.export))
		}
	}
	replay := runPartitioned(t, 2)
	if replay.events != base.events || replay.fp != base.fp {
		t.Fatalf("partitions=2 replay diverged from itself: events %d vs %d, fp %x vs %x",
			replay.events, base.events, replay.fp, base.fp)
	}
}

// TestShardClock covers the Shard.After/Shard.Now workload surface:
// callbacks run on the shard's domain under its clock, and the clocks
// of every domain agree between Run calls.
func TestShardClock(t *testing.T) {
	cl := NewCluster(Options{Nodes: 3, Shards: 2, Mode: ModeP4CE, Seed: 7, Partitions: 2})
	if cl.Partitions() != 2 {
		t.Fatalf("Partitions() = %d, want 2", cl.Partitions())
	}
	var at [2]time.Duration
	for s := 0; s < 2; s++ {
		s := s
		sh := cl.Shard(s)
		sh.After(time.Duration(s+1)*time.Millisecond, func() { at[s] = sh.Now() })
	}
	cl.Run(5 * time.Millisecond)
	for s := 0; s < 2; s++ {
		want := time.Duration(s+1) * time.Millisecond
		if at[s] != want {
			t.Fatalf("shard %d callback at %v, want %v", s, at[s], want)
		}
	}
	if now := cl.Now(); now != 5*time.Millisecond {
		t.Fatalf("fabric clock at %v after Run(5ms)", now)
	}
	for s := 0; s < 2; s++ {
		if sn := cl.Shard(s).Now(); sn != 5*time.Millisecond {
			t.Fatalf("shard %d clock at %v between Run calls, want %v", s, sn, 5*time.Millisecond)
		}
	}
}
