package chaos

import (
	"sort"

	"p4ce/internal/sim"
)

// Scenario is a named, scripted fault schedule. Apply installs the
// faults relative to the engine's current simulated time; Horizon says
// how long the simulation should then run so that both the fault window
// and the recovery it forces fit inside.
type Scenario struct {
	Name        string
	Description string
	Horizon     sim.Time
	// FaultStart/FaultEnd bracket the scenario's injury window,
	// relative to Apply time: FaultStart is the first instant any fault
	// is injected; FaultEnd is the latest time the fault — or the
	// recovery it forces (elections, switch reconfiguration, go-back-N
	// replay) — may still degrade service. The telemetry cross-check
	// demands that the SLO alert log *brackets* this window: the first
	// alert fires inside (FaultStart, FaultEnd], nothing fires before
	// FaultStart, and every alert has cleared by the horizon.
	FaultStart, FaultEnd sim.Time
	// Fabric marks scenarios that need a leaf-spine multi-switch
	// topology (a spine, a second rack, core InterLinks); they no-op on
	// the single-switch testbed, whose one ToR they never target, and
	// harnesses should build a fabric cluster for them.
	Fabric bool
	Apply  func(*Engine)
}

// The registry. Timescales are chosen against the stack's own
// constants: the NIC's retry budget is ≈6 ms (8 × 131 µs, backed off),
// mu detects a dead peer after 60 µs, a fallen-back leader re-probes
// the switch every 100 ms, and control-plane (re-)programming takes the
// paper's 40 ms. Horizons leave room for the slowest of those paths.
var scenarios = []Scenario{
	{
		Name:       "lossy-gather",
		FaultStart: 1 * sim.Millisecond, FaultEnd: 120 * sim.Millisecond,
		Description: "Gilbert-Elliott bursty loss plus delay jitter on every cable " +
			"for 40 ms: the scatter/gather pipeline must commit through go-back-N " +
			"retransmission with no divergence.",
		// Loss also hits heartbeat reads, so the 60 µs failure detector
		// flaps and leadership churns for the whole window; recovery then
		// needs a detector settle, a takeover and the 40 ms synchronous
		// switch reconfiguration before held proposals flush. A leader
		// that fell back during the churn re-probes the switch only every
		// 100 ms, so the LAST re-acceleration (another 40 ms synchronous
		// stall) can land as late as ~240 ms — the horizon must contain
		// it, plus the telemetry drain that stands the pager down.
		Horizon: 300 * sim.Millisecond,
		Apply: func(e *Engine) {
			const start, dur = 1 * sim.Millisecond, 40 * sim.Millisecond
			for _, n := range e.Nodes() {
				for _, p := range n.Link.ports() {
					e.GilbertElliott(p, start, dur, DefaultGEParams())
					e.Jitter(p, start, dur, 2*sim.Microsecond)
				}
			}
		},
	},
	{
		Name:       "replica-flap",
		FaultStart: 5 * sim.Millisecond, FaultEnd: 40 * sim.Millisecond,
		Description: "The highest-identifier replica crashes and restarts twice " +
			"(port dark + NIC reset): the leader must exclude it, keep committing " +
			"with the surviving majority, and re-admit it when it returns.",
		Horizon: 60 * sim.Millisecond,
		Apply: func(e *Engine) {
			nodes := e.Nodes()
			if len(nodes) == 0 {
				return
			}
			victim := nodes[len(nodes)-1]
			e.NodeOutage(victim, 5*sim.Millisecond, 3*sim.Millisecond)
			e.NodeOutage(victim, 20*sim.Millisecond, 3*sim.Millisecond)
		},
	},
	{
		Name:       "leader-partition",
		FaultStart: 5 * sim.Millisecond, FaultEnd: 180 * sim.Millisecond,
		Description: "The initial leader's cable blackholes both directions for " +
			"40 ms: the survivors must elect the next machine and keep committing; " +
			"on heal the lowest identifier takes the lead back per Mu's rule.",
		Horizon: 250 * sim.Millisecond,
		Apply: func(e *Engine) {
			nodes := e.Nodes()
			if len(nodes) == 0 {
				return
			}
			e.Partition([]Link{nodes[0].Link}, 5*sim.Millisecond, 40*sim.Millisecond)
		},
	},
	{
		Name:       "shard-leader-outage",
		FaultStart: 5 * sim.Millisecond, FaultEnd: 180 * sim.Millisecond,
		Description: "The first machine — shard 0's initial leader in a sharded " +
			"cluster — goes dark (port down + NIC reset) for 40 ms: shard 0 must " +
			"elect its next machine, and every other shard must keep committing " +
			"through the outage, untouched. On a single-group cluster this is a " +
			"plain leader outage.",
		// The outage outlives the NIC retry budget, so shard 0 needs a
		// detector verdict, a takeover, and the 40 ms switch group
		// (re-)programming; the horizon also covers the old leader's
		// re-admission after the heal.
		Horizon: 250 * sim.Millisecond,
		Apply: func(e *Engine) {
			nodes := e.Nodes()
			if len(nodes) == 0 {
				return
			}
			e.NodeOutage(nodes[0], 5*sim.Millisecond, 40*sim.Millisecond)
		},
	},
	{
		Name:       "spine-loss",
		FaultStart: 10 * sim.Millisecond, FaultEnd: 120 * sim.Millisecond,
		Description: "Spine 0 of the leaf-spine core dies outright at 10 ms, " +
			"blackholing every route that crossed it — including the leader ToR's " +
			"scatter copies toward remote racks and their partial-count ACKs back. " +
			"The fabric supervisor reroutes onto the surviving spine after the " +
			"40 ms control-plane reconfiguration; register state survives, and the " +
			"leader's go-back-N refills what the dead spine swallowed.",
		Horizon: 250 * sim.Millisecond,
		Fabric:  true,
		Apply: func(e *Engine) {
			if t, ok := e.Switch(-1, 0); ok {
				e.CrashSwitch(t, 10*sim.Millisecond)
			}
		},
	},
	{
		Name:       "rack-partition",
		FaultStart: 20 * sim.Millisecond, FaultEnd: 200 * sim.Millisecond,
		Description: "Rack 1's ToR keeps its rack-local traffic but loses the " +
			"core: every uplink to every spine blackholes both directions for " +
			"80 ms. The rack's replicas fall silent fabric-wide, the leader " +
			"excludes them and keeps committing on the majority rack, then " +
			"re-admits them when the core heals.",
		Horizon: 250 * sim.Millisecond,
		Fabric:  true,
		Apply: func(e *Engine) {
			if ls := e.RackUplinks(1); len(ls) > 0 {
				e.Partition(ls, 20*sim.Millisecond, 80*sim.Millisecond)
			}
		},
	},
	{
		Name:       "tor-failover-under-load",
		FaultStart: 10 * sim.Millisecond, FaultEnd: 200 * sim.Millisecond,
		Description: "Rack 1's ToR switch dies for good at 10 ms while the " +
			"leader is committing: its rack's replicas vanish mid-gather. The " +
			"supervisor has the standby switch adopt the dead ToR's identity " +
			"after the 40 ms reconfiguration — fresh registers, reinstalled " +
			"groups, host NICs flipped to their spare legs — and in-flight " +
			"rounds replay via the leader's go-back-N. No committed operation " +
			"may be lost or reordered across the window.",
		Horizon: 300 * sim.Millisecond,
		Fabric:  true,
		Apply: func(e *Engine) {
			if t, ok := e.Switch(1, -1); ok {
				e.CrashSwitch(t, 10*sim.Millisecond)
			}
		},
	},
	{
		Name:       "switch-reboot",
		FaultStart: 10 * sim.Millisecond, FaultEnd: 220 * sim.Millisecond,
		Description: "The programmable switch power-cycles for 30 ms, losing its " +
			"registers, match tables and multicast groups: the outage outlives the " +
			"NIC retry budget, so leaders fall back to direct replication and " +
			"re-accelerate once the control plane has re-programmed the pipeline.",
		Horizon: 250 * sim.Millisecond,
		Apply: func(e *Engine) {
			e.RebootSwitch(10*sim.Millisecond, 30*sim.Millisecond)
		},
	},
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// All returns every registered scenario, sorted by name.
func All() []Scenario {
	out := append([]Scenario(nil), scenarios...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	names := make([]string, 0, len(scenarios))
	for _, s := range scenarios {
		names = append(names, s.Name)
	}
	sort.Strings(names)
	return names
}
