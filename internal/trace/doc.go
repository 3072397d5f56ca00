// Package trace provides packet-level observability for the simulated
// fabric: it taps simnet ports, decodes RoCE v2 frames, and renders
// one-line summaries of the form
//
//	[  41.207µs] host0 TX  10.0.0.1→10.254.0.254 RDMA_WRITE_ONLY qp=0x800 psn=0x52ca31 va=0x40 len=64
//	[  41.845µs] host0 RX  10.254.0.254→10.0.0.1 ACKNOWLEDGE qp=0x30 psn=0x52ca31 ack(credits=31)
//
// so protocol exchanges — the CM handshake, the switch's scatter and
// rewritten copies, aggregated ACKs, NAKs — can be read straight off
// the wire. A Tracer keeps a bounded ring of recent events plus running
// per-opcode counters, and can stream to an io.Writer as events happen.
// Tapping copies what it needs out of each frame before the pool
// reclaims it, so a tracer never perturbs the run it observes beyond
// its own scheduled work.
//
// A TX event is stamped when the device hands the frame to its port,
// which for a host NIC is one rnic ProcessingDelay (50 ns) before the
// frame can start onto the wire; the matching RX is stamped when the last
// bit arrives. A frame handed over before the tracer was attached is
// never seen, even if it departs afterwards: a Cluster's t = 0
// ConnectRequests, for one.
package trace
