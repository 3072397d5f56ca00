package chaos_test

// Pool-reuse determinism guard. The zero-allocation work recycles
// events, frames, WQEs, proposals and payload buffers through free
// lists; a reuse-order bug (a stale generation slipping through, a
// buffer recycled while still aliased) would almost always perturb the
// event schedule before it corrupts state. Running every chaos scenario
// twice and demanding the exact same number of kernel events — on top
// of the behavioral fingerprint — catches that class of bug directly,
// including under the race detector.

import (
	"testing"

	"p4ce/internal/chaos"
)

func TestEventCountDeterminism(t *testing.T) {
	names := chaos.Names()
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			first := runScenario(t, name, 555, 777, 1)
			replay := runScenario(t, name, 555, 777, 1)
			a, b := first.cl.EventsProcessed(), replay.cl.EventsProcessed()
			if a != b {
				t.Fatalf("%s: same seeds processed %d vs %d events", name, a, b)
			}
			if a == 0 {
				t.Fatalf("%s: zero events processed", name)
			}
			if fa, fb := first.fingerprint(), replay.fingerprint(); fa != fb {
				t.Fatalf("%s: same seeds, different runs:\n  run1: %s\n  run2: %s", name, fa, fb)
			}
		})
	}
}
