// Package rnic simulates an RDMA-capable network card speaking RoCE v2
// with reliable-connection semantics: queue pairs, registered memory
// regions protected by R_keys and per-writer permissions, one-sided
// READ/WRITE executed entirely inside the NIC (no host CPU
// involvement), acknowledgment generation with credit advertisement,
// NAKs for access and sequence errors, and go-back-N retransmission
// with the discrete 4.096×2^x µs timeout values real cards use.
//
// The protocols above (mu and the core engine) only ever interact with
// this verbs-like surface, so their code paths are the same ones that
// would run against hardware. Below, the NIC owns one simnet port and
// encodes/decodes frames with package roce.
//
// The card's per-packet pipeline (the ProcessingDelay constant) is
// booked on the port at hand-off with simnet.Port.SendAfter, not run as
// a kernel event: the frame leaves the wire exactly when a delayed send
// would have sent it, and the port's link, loss and tap decisions are
// taken when the NIC hands it over.
//
// # Buffer ownership
//
// Outbound payloads are copied into pooled frames at post time, so a
// caller's slice is free for reuse the moment PostWrite/PostSend
// returns. Inbound payloads follow the roce aliasing rule: a QP
// handler's payload view dies when the handler returns; registered
// memory regions are the only stable store.
package rnic
