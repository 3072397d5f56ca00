// Package mu implements the decision plane P4CE adopts unchanged from
// Mu (Aguilera et al., OSDI '20): every machine keeps a log in RDMA-
// registered memory; the machine with the lowest identifier among the
// live ones is the leader; liveness is established through heartbeat
// counters that every machine reads over RDMA; replicas grant log-write
// permission exclusively to the machine they believe is the leader,
// which fences deposed leaders at the NIC level; and a value is decided
// once the NICs of f replicas have acknowledged the leader's write.
//
// The replication *transport* — how the leader's write physically
// reaches the replicas — is pluggable: package mu provides the direct
// per-replica transport (Mu proper), and package core provides the
// switch-accelerated transport (P4CE). A node prefers its accelerated
// transport whenever it reports Ready and falls back to the direct one
// on any acknowledged error.
//
// # Batching
//
// The leader carries an adaptive client-op batcher (batch.go): while
// the RDMA pipeline has free slots, every Propose takes the classic
// one-op-one-entry path byte for byte; past saturation, proposals queue
// and flush as one FlagBatch entry when a slot frees, a size bound is
// hit, or the oldest op has waited long enough. Appliers walk FlagBatch
// payloads with BatchIter.
//
// # Inbound validation
//
// A replica finds new entries the way Mu's polling thread does: every
// write that lands in its log region wakes the Consumer, which checks
// the entry at its read offset against the CRC-32 in the entry's
// trailer. A writer lays an entry down header first and trailer last,
// so once the awaited entry has failed its check, a write that touches
// neither its header nor its trailer cannot complete it and is not
// checked again (Consumer.PollWrite): a 4 KiB entry arriving as five
// segments costs two checksums, not five.
//
// # Buffer ownership
//
// Propose copies the caller's bytes before returning, so callers reuse
// their buffers immediately. Internally the ring log, the
// re-replication cache and the batch queue all draw on the kernel's
// Buffers pool, and apply callbacks receive views that die when the
// callback returns — the same aliasing rule as the wire layers below.
package mu
