package bench

import (
	"fmt"
	"time"

	"p4ce"
	"p4ce/internal/rnic"
	"p4ce/internal/sim"
	"p4ce/internal/tofino"
)

// AckPlacementResult is the §IV-D parser-bottleneck ablation: the same
// workload with sub-majority ACKs dropped in the replicas' ingress
// pipelines (the published design) versus in the leader's egress (the
// first implementation).
type AckPlacementResult struct {
	Replicas        int     `json:"replicas"`
	ParserPPS       float64 `json:"parser_pps"`         // scaled-down parser capacity used for the run
	IngressDropRate float64 `json:"ingress_drop_per_s"` // consensus/s with ingress-side dropping
	EgressDropRate  float64 `json:"egress_drop_per_s"`  // consensus/s with leader-egress dropping
	Speedup         float64 `json:"speedup"`
}

func (r AckPlacementResult) check() error {
	if r.IngressDropRate <= 0 || r.EgressDropRate <= 0 {
		return fmt.Errorf("ack placement r%d: non-positive rate", r.Replicas)
	}
	return nil
}

// RunAckAggregationAblation reproduces the paper's Lesson: with the
// first implementation every replica's ACK crosses the leader's egress
// parser, capping the whole switch at one parser's packet rate; dropping
// in the ingress scales the rate with the number of replicas. The
// parser is slowed far below 121 Mpps so the bottleneck is reachable at
// simulation scale — the *ratio* is the result.
func RunAckAggregationAblation(replicas, ops int, seed int64) (AckPlacementResult, error) {
	const parserService = 2 * sim.Microsecond // 500 kpps parser
	res := AckPlacementResult{
		Replicas:  replicas,
		ParserPPS: float64(sim.Second) / float64(parserService),
	}
	run := func(egressDrop bool) (float64, error) {
		cl, leader, err := Steady(p4ce.Options{
			Nodes:                 replicas + 1,
			Mode:                  p4ce.ModeP4CE,
			Seed:                  seed,
			AckDropInLeaderEgress: egressDrop,
			TuneSwitch: func(cfg *tofino.Config) {
				cfg.ParserServiceTime = parserService
			},
		})
		if err != nil {
			return 0, err
		}
		r, err := ClosedLoop(cl, leader, 64, 16, ops/10, ops)
		if err != nil {
			return 0, err
		}
		return r.Throughput, nil
	}
	var err error
	if res.IngressDropRate, err = run(false); err != nil {
		return res, err
	}
	if res.EgressDropRate, err = run(true); err != nil {
		return res, err
	}
	res.Speedup = res.IngressDropRate / res.EgressDropRate
	return res, nil
}

// CreditAblationResult reports how the min-credit aggregation (§IV-C)
// protects a slow replica: the leader throttles to the slowest member's
// advertised credits, keeping receiver-not-ready NAKs rare while the
// whole group still commits.
type CreditAblationResult struct {
	Replicas      int           `json:"replicas"`
	ApplyDelay    time.Duration `json:"apply_delay_ns"`
	ThroughputOps float64       `json:"throughput_ops_per_s"`
	ReplicaRNRs   uint64        `json:"replica_rnrs"`
}

func (r CreditAblationResult) check() error {
	if r.ThroughputOps <= 0 {
		return fmt.Errorf("credit r%d: non-positive rate", r.Replicas)
	}
	return nil
}

// RunCreditAblation drives a group whose last replica consumes inbound
// messages slowly (draining its advertised credits) and reports the
// sustained rate and the RNR pressure at the slow member.
func RunCreditAblation(replicas, ops int, applyDelay time.Duration, seed int64) (CreditAblationResult, error) {
	res := CreditAblationResult{Replicas: replicas, ApplyDelay: applyDelay}
	slow := replicas // node id of the slow replica
	cl, leader, err := Steady(p4ce.Options{
		Nodes: replicas + 1,
		Mode:  p4ce.ModeP4CE,
		Seed:  seed,
		TuneNIC: func(i int, cfg *rnic.Config) {
			if i == slow {
				cfg.ApplyDelay = sim.Time(applyDelay.Nanoseconds())
				cfg.ResponderSlots = 8
			}
		},
	})
	if err != nil {
		return res, err
	}
	r, err := ClosedLoop(cl, leader, 64, 16, ops/10, ops)
	if err != nil {
		return res, err
	}
	res.ThroughputOps = r.Throughput
	res.ReplicaRNRs = cl.Node(slow).Protocol().NIC().Stats.RNRsSent
	return res, nil
}

// AsyncReconfigResult compares leader fail-over with and without the
// Lesson-3 improvement (asynchronous switch reconfiguration).
type AsyncReconfigResult struct {
	Nodes         int           `json:"nodes"`
	SyncFailover  time.Duration `json:"sync_failover_ns"`
	AsyncFailover time.Duration `json:"async_failover_ns"`
}

func (r AsyncReconfigResult) check() error {
	if r.SyncFailover <= 0 || r.AsyncFailover <= 0 {
		return fmt.Errorf("async reconfig n%d: non-positive fail-over", r.Nodes)
	}
	return nil
}

// RunAsyncReconfigAblation measures P4CE leader fail-over in both
// configurations: synchronously the new leader waits the 40 ms switch
// reconfiguration (Table IV's 40.9 ms); asynchronously it replicates
// directly in the meantime, matching Mu's 0.9 ms.
func RunAsyncReconfigAblation(nodes int, seed int64) (AsyncReconfigResult, error) {
	res := AsyncReconfigResult{Nodes: nodes}
	cfg := FailoverConfig{Nodes: nodes, Seed: seed}
	d, err := measureLeaderCrash(p4ce.ModeP4CE, cfg)
	if err != nil {
		return res, err
	}
	res.SyncFailover = d
	cfg.AsyncReconfig = true
	if d, err = measureLeaderCrash(p4ce.ModeP4CE, cfg); err != nil {
		return res, err
	}
	res.AsyncFailover = d
	return res, nil
}
