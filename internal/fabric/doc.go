// Package fabric builds the leaf-spine switch topology: N ToR (leaf)
// switches with hosts racked behind them, M spine switches every ToR
// uplinks to, and an optional standby switch dual-homed to every host.
// One rack and no spine is the degenerate case, and the paper's
// testbed: a single ToR with every host behind it, no inter-switch
// cable, and nothing for RerouteAroundSpine or AdoptRack to do. That
// fabric may also cable every host to a plain backup switch (the
// paper's alternative route). Either spare gives each host one spare
// leg (AttachSpare).
//
// The package is deliberately dumb about consensus. It owns switches,
// cables, and exact-match L3 route tables — who reaches whom across
// which spine — and the two reconfiguration moves a fabric control
// plane performs after a failure: RerouteAroundSpine (shift routes off
// a dead spine) and AdoptRack (VRRP-style identity takeover of a dead
// ToR by the standby). Everything consensus-specific — the P4CE
// scatter/gather program on each ToR, multicast groups, partial-count
// registers — is layered on top by internal/p4ce's control plane,
// which programs each switch this package built.
//
// Addressing: hosts keep their usual 10.0.<shard>.<i+1> addresses,
// ToR r answers 10.254.<r>.254, spine m answers 10.253.<m>.254, the
// backup answers 10.251.0.254, and the standby idles at 10.252.0.254
// until it adopts a rack and takes over that rack's ToR address.
// Spines and the backup run a plain L3 forwarding program; they never
// hold consensus state, so losing a spine only costs routes (rebound
// onto a surviving spine), never register state.
//
// All switches live on one scheduling domain (the fabric domain of a
// partitioned kernel), so route updates are plain function calls and
// the whole fabric stays bit-identical at any partition count.
package fabric
