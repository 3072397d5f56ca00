package bench

import (
	"testing"
	"time"

	"p4ce"
)

// End-to-end microbenchmarks: one iteration is one committed consensus
// operation on a warm steady-state cluster — propose, switch scatter,
// replica ACKs, switch gather, aggregated ACK, commit, apply. Beyond
// ns/op and allocs/op, they report the two simulator-health metrics the
// optimization work tracks: kernel events per second of wall-clock time
// and simulated nanoseconds advanced per wall-clock nanosecond (higher
// is better for both).
func benchCommittedOps(b *testing.B, mode p4ce.Mode, nodes int) {
	cl, leader, err := Steady(p4ce.Options{Nodes: nodes, Mode: mode, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	outstanding := 0
	done := func(err error) {
		if err != nil {
			b.Fatal(err)
		}
		outstanding--
	}
	oneOp := func() {
		if err := leader.Propose(payload, done); err != nil {
			b.Fatal(err)
		}
		outstanding++
		for outstanding > 0 {
			if !cl.Step() {
				b.Fatal("simulation stalled")
			}
		}
	}
	// Warm the free lists and the re-replication caches (prune-and-
	// recycle starts once they hold mu.CatchUpWindow 64-byte entries).
	for i := 0; i < 5000; i++ {
		oneOp()
	}
	events0, sim0 := cl.EventsProcessed(), cl.Now()
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		oneOp()
	}
	wall := time.Since(start)
	b.StopTimer()
	if wall > 0 {
		b.ReportMetric(float64(cl.EventsProcessed()-events0)/wall.Seconds(), "events/s")
		b.ReportMetric(float64(cl.Now()-sim0)/float64(wall), "sim-ns/wall-ns")
	}
}

func BenchmarkP4CECommittedOps(b *testing.B) { benchCommittedOps(b, p4ce.ModeP4CE, 5) }
func BenchmarkMuCommittedOps(b *testing.B)   { benchCommittedOps(b, p4ce.ModeMu, 3) }
func BenchmarkP4CECommitted3(b *testing.B)   { benchCommittedOps(b, p4ce.ModeP4CE, 3) }
