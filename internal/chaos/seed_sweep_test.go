package chaos_test

// Seed sweep: every registered chaos scenario runs across a spread of
// (kernel, chaos) seed pairs, asserting the same liveness / safety /
// bounded-recovery invariants as the single-seed scenario suite plus
// bit-identical replay per seed. One seed is one sample of the fault
// schedule; a bug that only bites when a loss burst straddles a
// particular retransmission round needs the sweep to surface it.
//
// It is one sweep under two test names. Every sample runs at one
// partition with its invariants checked; TestSeedSweep replays three
// samples in four at one partition, and TestParallelSeedSweep replays
// the fourth at two — the kernel's defining property: the fingerprint
// does not depend on the partition count. `make test-race-parallel`
// runs the latter under the race detector.

import (
	"fmt"
	"testing"

	"p4ce/internal/chaos"
)

// parallelStride: sweep samples 0, 4, 8, … are the ones replayed at two
// partitions, as TestParallelSeedSweep's seed00, seed01, seed02, …
const parallelStride = 4

// sweepSeeds picks the sweep width for the build flavor: 32 samples per
// scenario normally, 8 under -short. (TestSeedSweep skips entirely
// under the race detector.)
func sweepSeeds() int {
	if testing.Short() {
		return 8
	}
	return 32
}

// parallelSweepSeeds is how many samples TestParallelSeedSweep replays:
// every parallelStride-th of the full sweep, fewer under -short, and
// fewer still under the race detector, where the worker goroutines of a
// two-partition run are expensive.
func parallelSweepSeeds() int {
	if raceEnabled {
		return 2
	}
	if testing.Short() {
		return 4
	}
	return 8
}

// sweepSample runs sample i of scenario name at one partition and
// checks its invariants, then — with replayPartitions > 0 — runs it
// again at that partition count and demands the same fingerprint byte
// for byte. The seed pairs are fixed (not wall-clock derived): a failure
// names its pair and reruns under -run with the same result every time.
func sweepSample(t *testing.T, name string, i, replayPartitions int) {
	t.Helper()
	// Decorrelate kernel and chaos seeds: the kernel seed walks one
	// arithmetic sequence, the fault schedule another, so neighboring
	// samples share neither stream.
	kernelSeed := int64(2001 + 7*i)
	chaosSeed := int64(331 + 13*i)
	first := runScenario(t, name, kernelSeed, chaosSeed, 1)
	first.checkInvariants(t, name)
	if replayPartitions == 0 {
		return
	}
	replay := runScenario(t, name, kernelSeed, chaosSeed, replayPartitions)
	if a, b := first.fingerprint(), replay.fingerprint(); a != b {
		t.Fatalf("%s seeds (%d,%d): partitions=1 vs replay at partitions=%d diverged:\n  run1: %s\n  run2: %s",
			name, kernelSeed, chaosSeed, replayPartitions, a, b)
	}
}

// sweepScenarios runs fn as subtest <scenario>/seedNN for n seeds of
// every registered scenario.
func sweepScenarios(t *testing.T, n int, fn func(t *testing.T, name string, i int)) {
	names := chaos.Names()
	if len(names) == 0 {
		t.Fatal("no chaos scenarios registered")
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			for i := 0; i < n; i++ {
				i := i
				t.Run(fmt.Sprintf("seed%02d", i), func(t *testing.T) { fn(t, name, i) })
			}
		})
	}
}

func TestSeedSweep(t *testing.T) {
	if raceEnabled {
		// Each scenario run costs ~10x under the race detector and the
		// race schedule does not vary with the simulation seed, so the
		// sweep buys no detector coverage beyond the fixed-seed
		// scenario suite and TestEventCountDeterminism, which already
		// run every scenario twice under race. Stacked on top of those
		// the sweep pushes the package past any sane test timeout.
		t.Skip("race mode: scenario code paths covered by the fixed-seed suite")
	}
	sweepScenarios(t, sweepSeeds(), func(t *testing.T, name string, i int) {
		replayPartitions := 1
		if i%parallelStride == 0 {
			replayPartitions = 0 // TestParallelSeedSweep replays this sample
		}
		sweepSample(t, name, i, replayPartitions)
	})
}

func TestParallelSeedSweep(t *testing.T) {
	if raceEnabled && !testing.Short() {
		// Under the race detector this sweep runs in its own dedicated
		// -short invocation (scripts/check.sh, make test-race-parallel):
		// inside the package's full race pass it pushes the package past
		// the 10-minute test timeout.
		t.Skip("race mode: covered by the dedicated -short gate")
	}
	sweepScenarios(t, parallelSweepSeeds(), func(t *testing.T, name string, i int) {
		sweepSample(t, name, i*parallelStride, 2)
	})
}
