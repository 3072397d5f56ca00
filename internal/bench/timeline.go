package bench

// SLO-timeline measurements (the telemetry tentpole's benchmark
// surface). RunTimeline replays named chaos scenarios against a fully
// telemetered cluster under a steady open-loop workload and reduces
// each run to the numbers an on-call rotation would care about: how
// long after the fault opened did the first page fire (detection), and
// how long until every alert stood down again (all-clear). A point is
// "bracketed" when the alert log respects the scenario's declared fault
// window — no page before the fault, the first page inside it, and
// silence restored by the horizon — which is the property the report
// validator enforces.

import (
	"fmt"
	"time"

	"p4ce"
	"p4ce/internal/chaos"
)

// TimelineConfig parameterizes the scenario sweep.
type TimelineConfig struct {
	// Scenarios names the chaos scenarios to replay (chaos.Names()).
	Scenarios []string `json:"scenarios"`
	// ChaosSeed seeds the fault engine's random draws; the kernel seed
	// comes from the report seed, so a (profile, seed) pair reproduces
	// the same alert log byte for byte.
	ChaosSeed int64 `json:"chaos_seed"`
	Seed      int64 `json:"-"`
}

// DefaultTimelineConfig replays every registered scenario with the
// chaos suite's canonical fault seed.
func DefaultTimelineConfig() TimelineConfig {
	return TimelineConfig{Scenarios: chaos.Names(), ChaosSeed: 99}
}

// TimelinePoint is one scenario's alert-log summary. All times are
// simulated nanoseconds; FaultStart/FaultEnd are relative to AppliedAt
// (the instant the fault schedule was armed), FirstFire/LastClear are
// absolute kernel timestamps.
type TimelinePoint struct {
	Scenario     string `json:"scenario"`
	AppliedAtNs  int64  `json:"applied_at_ns"`
	FaultStartNs int64  `json:"fault_start_ns"`
	FaultEndNs   int64  `json:"fault_end_ns"`
	HorizonNs    int64  `json:"horizon_ns"`
	// FirstFireNs is when the first alert fired (0 = the log is empty);
	// DetectionNs is its distance from the fault window opening.
	FirstFireNs int64 `json:"first_fire_ns"`
	DetectionNs int64 `json:"detection_ns"`
	// LastClearNs is when the final alert stood down; AllClearNs is its
	// distance from the fault window opening — fault-to-quiet, the
	// on-call's whole incident span.
	LastClearNs int64  `json:"last_clear_ns"`
	AllClearNs  int64  `json:"all_clear_ns"`
	Alerts      int    `json:"alerts"`
	Bracketed   bool   `json:"bracketed"`
	Committed   int    `json:"committed_ops"`
	Events      uint64 `json:"events"`
}

func (p TimelinePoint) check() error {
	// The section's whole claim: every scenario's alert log brackets its
	// declared fault window.
	if !p.Bracketed {
		return fmt.Errorf("%s: alert log did not bracket the fault window", p.Scenario)
	}
	if p.Committed <= 0 {
		return fmt.Errorf("%s: nothing committed", p.Scenario)
	}
	// Bracketed implies at least one fire, cleared by the horizon — so
	// transitions pair up and the log is even.
	if p.Alerts < 2 || p.Alerts%2 != 0 {
		return fmt.Errorf("%s: %d alert transitions, want an even count >= 2", p.Scenario, p.Alerts)
	}
	open, close := p.AppliedAtNs+p.FaultStartNs, p.AppliedAtNs+p.FaultEndNs
	if p.FirstFireNs <= open || p.FirstFireNs > close {
		return fmt.Errorf("%s: first fire at %d outside fault window (%d, %d]", p.Scenario, p.FirstFireNs, open, close)
	}
	if p.DetectionNs != p.FirstFireNs-open {
		return fmt.Errorf("%s: detection %d != first fire %d - window open %d",
			p.Scenario, p.DetectionNs, p.FirstFireNs, open)
	}
	if p.LastClearNs <= p.FirstFireNs {
		return fmt.Errorf("%s: last clear %d not after first fire %d", p.Scenario, p.LastClearNs, p.FirstFireNs)
	}
	return nil
}

// RunTimeline replays every configured scenario once and summarizes
// its alert log.
func RunTimeline(cfg TimelineConfig) ([]TimelinePoint, error) {
	var out []TimelinePoint
	for _, name := range cfg.Scenarios {
		pt, err := runTimelinePoint(name, cfg)
		if err != nil {
			return nil, fmt.Errorf("timeline %s: %w", name, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

func runTimelinePoint(name string, cfg TimelineConfig) (TimelinePoint, error) {
	sc, ok := chaos.Lookup(name)
	if !ok {
		return TimelinePoint{}, fmt.Errorf("unknown scenario (have %v)", chaos.Names())
	}
	// The chaos suite's testbeds: three machines on one switch, or — for
	// fabric-flagged scenarios — five machines across two racks with two
	// spines and a standby ToR.
	opts := p4ce.Options{Nodes: 3, Mode: p4ce.ModeP4CE, Seed: cfg.Seed, EnableTelemetry: true}
	if sc.Fabric {
		opts.Nodes = 5
		opts.Topology = &p4ce.Topology{Racks: 2, Spines: 2, Standby: true}
	}
	cl := p4ce.NewCluster(opts)
	if _, err := cl.RunUntilLeader(200 * time.Millisecond); err != nil {
		return TimelinePoint{}, fmt.Errorf("no leader before faults: %w", err)
	}

	// Open-loop workload for the whole horizon: one proposal every
	// 100 µs to whoever leads. Failures are expected mid-fault.
	committed := 0
	sh := cl.Shard(0)
	var tick func()
	tick = func() {
		if l := cl.Leader(); l != nil {
			_ = l.Propose([]byte("timeline-op"), func(err error) {
				if err == nil {
					committed++
				}
			})
		}
		sh.After(100*time.Microsecond, tick)
	}
	sh.After(100*time.Microsecond, tick)

	_, horizon, err := cl.ApplyChaosScenario(name, cfg.ChaosSeed, nil)
	if err != nil {
		return TimelinePoint{}, err
	}
	appliedAt := sh.Now()
	cl.Run(horizon)

	pt := TimelinePoint{
		Scenario:     name,
		AppliedAtNs:  int64(appliedAt),
		FaultStartNs: int64(sc.FaultStart),
		FaultEndNs:   int64(sc.FaultEnd),
		HorizonNs:    int64(sc.Horizon),
		Committed:    committed,
		Events:       cl.EventsProcessed(),
	}
	alerts := cl.Telemetry().Alerts()
	pt.Alerts = len(alerts)
	if len(alerts) == 0 {
		return pt, nil // Bracketed stays false: no page is a miss.
	}
	faultOpen := pt.AppliedAtNs + pt.FaultStartNs
	faultClose := pt.AppliedAtNs + pt.FaultEndNs
	pt.FirstFireNs = alerts[0].AtNs
	pt.DetectionNs = pt.FirstFireNs - faultOpen
	for _, a := range alerts {
		if !a.Firing {
			pt.LastClearNs = a.AtNs
		}
	}
	pt.AllClearNs = pt.LastClearNs - faultOpen
	pt.Bracketed = alerts[0].Firing &&
		pt.FirstFireNs > faultOpen && pt.FirstFireNs <= faultClose &&
		!cl.Telemetry().Firing()
	return pt, nil
}
