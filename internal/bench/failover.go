package bench

import (
	"fmt"
	"time"

	"p4ce"
)

// FailoverTimes is Table IV: average fail-over times for one mode.
type FailoverTimes struct {
	Mode p4ce.Mode `json:"mode"`
	// GroupConfig is the time to configure a communication group on the
	// switch (P4CE only; zero for Mu).
	GroupConfig time.Duration `json:"group_config_ns"`
	// ReplicaCrash is crash → replication set updated (Mu: leader-local
	// exclusion; P4CE: exclusion plus switch-group update).
	ReplicaCrash time.Duration `json:"replica_crash_ns"`
	// LeaderCrash is crash → new leader serving (Mu: permission switch +
	// catch-up; P4CE: plus the synchronous switch reconfiguration).
	LeaderCrash time.Duration `json:"leader_crash_ns"`
	// SwitchCrash is crash → replication resumed over the backup route.
	SwitchCrash time.Duration `json:"switch_crash_ns"`
}

func (f FailoverTimes) check() error {
	if f.ReplicaCrash <= 0 || f.LeaderCrash <= 0 || f.SwitchCrash <= 0 {
		return fmt.Errorf("%s: non-positive times", f.Mode)
	}
	return nil
}

// FailoverConfig parameterizes the Table IV runs.
type FailoverConfig struct {
	Nodes int
	Seed  int64
	// AsyncReconfig applies the paper's Lesson 3 improvement: the new
	// leader replicates directly while the switch reconfigures, making
	// P4CE's leader fail-over identical to Mu's.
	AsyncReconfig bool
}

// DefaultFailoverConfig mirrors the testbed (5 machines).
func DefaultFailoverConfig() FailoverConfig {
	return FailoverConfig{Nodes: 5, Seed: 1}
}

// RunFailover regenerates Table IV for one mode.
func RunFailover(mode p4ce.Mode, cfg FailoverConfig) (FailoverTimes, error) {
	out := FailoverTimes{Mode: mode}

	if mode == p4ce.ModeP4CE {
		d, err := measureGroupConfig(cfg)
		if err != nil {
			return out, err
		}
		out.GroupConfig = d
	}
	d, err := measureReplicaCrash(mode, cfg)
	if err != nil {
		return out, err
	}
	out.ReplicaCrash = d
	if d, err = measureLeaderCrash(mode, cfg); err != nil {
		return out, err
	}
	out.LeaderCrash = d
	if d, err = measureSwitchCrash(mode, cfg); err != nil {
		return out, err
	}
	out.SwitchCrash = d
	return out, nil
}

func options(mode p4ce.Mode, cfg FailoverConfig, backup bool) p4ce.Options {
	return p4ce.Options{
		Nodes:         cfg.Nodes,
		Mode:          mode,
		Seed:          cfg.Seed,
		BackupFabric:  backup,
		AsyncReconfig: cfg.AsyncReconfig,
	}
}

// measureGroupConfig times ConnectRequest → switch reconfigured (§V-E
// "Configuring a communication group", 40 ms on the testbed).
func measureGroupConfig(cfg FailoverConfig) (time.Duration, error) {
	cl := p4ce.NewCluster(options(p4ce.ModeP4CE, cfg, false))
	// The group dial starts when the leader takes over; measure from
	// there to acceleration.
	var leadAt, accelAt time.Duration
	sh := cl.Shard(0) // leadership changes on the shard's domain, under its clock
	deadline := 500 * time.Millisecond
	for sh.Now() < deadline {
		if !cl.Step() {
			break
		}
		l := cl.Leader()
		if l == nil {
			continue
		}
		if leadAt == 0 {
			leadAt = sh.Now()
		}
		if l.Accelerated() {
			accelAt = sh.Now()
			break
		}
	}
	if accelAt == 0 {
		return 0, &stalledError{stage: "group configuration"}
	}
	return accelAt - leadAt, nil
}

// measureReplicaCrash times crash → replication membership updated.
func measureReplicaCrash(mode p4ce.Mode, cfg FailoverConfig) (time.Duration, error) {
	cl := p4ce.NewCluster(options(mode, cfg, false))
	leader, err := cl.RunUntilLeader(500 * time.Millisecond)
	if err != nil {
		return 0, err
	}
	cl.Run(time.Millisecond)
	victim := cl.Node(cfg.Nodes - 1)
	crashAt := cl.Now()
	victim.Crash()
	deadline := crashAt + 500*time.Millisecond
	for cl.Now() < deadline {
		if !cl.Step() {
			break
		}
		if mode == p4ce.ModeMu {
			if at := leader.Stats().LastExclusionAt; time.Duration(at) > crashAt {
				return time.Duration(at) - crashAt, nil
			}
		} else {
			if at := leader.EngineStats().LastGroupUpdateAt; time.Duration(at) > crashAt {
				return time.Duration(at) - crashAt, nil
			}
		}
	}
	return 0, &stalledError{stage: "replica crash"}
}

// measureLeaderCrash times crash → new leader able to commit (and, for
// synchronous P4CE, accelerated again).
func measureLeaderCrash(mode p4ce.Mode, cfg FailoverConfig) (time.Duration, error) {
	cl := p4ce.NewCluster(options(mode, cfg, false))
	leader, err := cl.RunUntilLeader(500 * time.Millisecond)
	if err != nil {
		return 0, err
	}
	cl.Run(time.Millisecond)
	sh := cl.Shard(0)
	crashAt := sh.Now()
	leader.Crash()
	deadline := crashAt + 500*time.Millisecond
	for sh.Now() < deadline {
		if !cl.Step() {
			break
		}
		next := cl.Leader()
		if next == nil || next == leader {
			continue
		}
		if next.CommitIndex() <= 0 || next.LastIndex() < next.CommitIndex() {
			continue
		}
		// The view-opening no-op must have committed under the new term.
		if next.Stats().Committed == 0 {
			continue
		}
		if mode == p4ce.ModeP4CE && !cfg.AsyncReconfig && !next.Accelerated() {
			continue
		}
		return sh.Now() - crashAt, nil
	}
	return 0, &stalledError{stage: "leader crash"}
}

// measureSwitchCrash times crash → replication resumed via the backup
// route (§V-E "Crashed switch", ≈60 ms for both systems).
func measureSwitchCrash(mode p4ce.Mode, cfg FailoverConfig) (time.Duration, error) {
	cl := p4ce.NewCluster(options(mode, cfg, true))
	if _, err := cl.RunUntilLeader(500 * time.Millisecond); err != nil {
		return 0, err
	}
	cl.Run(time.Millisecond)
	sh := cl.Shard(0)
	crashAt := sh.Now()
	cl.CrashSwitch()
	var proposed, committed bool
	deadline := crashAt + time.Second
	for sh.Now() < deadline {
		if !cl.Step() {
			break
		}
		l := cl.Leader()
		if l == nil || !l.OnBackupRoute() {
			continue
		}
		if !proposed {
			proposed = true
			_ = l.Propose([]byte("probe"), func(err error) {
				if err == nil {
					committed = true
				}
			})
		}
		if committed {
			return sh.Now() - crashAt, nil
		}
	}
	return 0, &stalledError{stage: "switch crash"}
}
