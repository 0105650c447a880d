// Package ring implements a single-producer/single-consumer record
// ring layered on a shared-memory segment: the streaming data plane
// that completes the paper's communication model — shared memory for
// data, event-driven notification for control.
//
// # Why a ring
//
// The segment plane (internal/shm) already moves bulk payloads for
// free — share beats copy 9.6x at 4 KiB — but every transfer still
// pays a per-transfer vectored notify, and the vectored call plane
// (internal/obj Batch) amortizes the fixed crossing cost only when the
// caller collects calls by hand. A ring amortizes the *notification*:
// the producer publishes records into shared slots at a couple of
// cycles each and rings one doorbell per burst, so the ~700-cycle
// fixed cost of waking the consumer is split across the whole burst.
// At burst 64 the per-record overhead is push (≈5) + pop (≈5) +
// doorbell/64 (≈12) ≈ 22 cycles — versus ≈59 for the per-transfer
// share+notify pattern of the P6 experiment.
//
// # Wire format
//
// A ring of S slots of B payload bytes lives in one segment owned by
// the producer's protection domain, granted read-write to the
// consumer. All control state is little-endian uint64 words at fixed
// offsets in page 0:
//
//	off  0  magic     0x706d72696e673031 ("pmring01")
//	off  8  slots     S
//	off 16  slotBytes B
//	off 24  tail      records published — written by the producer only
//	off 32  head      records consumed — written by the consumer only
//	off 40  doorbell  tail value latched at the last Notify
//
// tail and head are free-running counters (they never wrap to zero);
// slot indices are counter mod S, the ring is empty when head == tail
// and full when tail-head == S. Because each control word has exactly
// one writer, no compare-and-swap is needed anywhere in the protocol.
//
// Behind the control words sits a dense descriptor array — one
// 8-byte length word per slot, starting at offset 64 — and behind
// that, page-aligned, the payload slots (slotBytes rounded up to a
// word). The descriptor array is what keeps the steady-state working
// set small: publishing and consuming a record touches only control
// and descriptor words, which pack hundreds to a page, so a ring of
// large slots stays TLB-resident (the simulated TLBs hold
// mmu.DefaultTLBSize entries) no matter how big the payload area is.
// Payload pages cost translations only when a side actually reads or
// writes payload bytes — exactly the accounting of the segment plane,
// where the mapped data is charged to whoever touches it.
//
// # Ordering and atomicity
//
// Every word access goes through Segment.Store/Load (producer side)
// or Attachment.Store/Load (consumer side), i.e. under the existing
// per-grant access locks and the simulated memory's global ordering.
// Word accesses are therefore atomic, and a side's writes become
// visible in program order: the producer writes the descriptor
// *before* publishing tail, so a consumer that observes the new tail
// always observes the descriptor; the consumer publishes head only
// after it is done with the slot, so the producer never overwrites a
// record still being read.
//
// # Doorbell
//
// Producer.Notify latches tail into the doorbell word (charged as one
// clock.OpDoorbell, paid by the producer per burst — not per record)
// and, if a doorbell handle is set, invokes it: a zero-argument
// method, typically resolved through the cross-domain proxy plane, so
// one vectored crossing wakes the consumer for the whole burst. A
// ring without a doorbell handle is a pure polling ring.
//
// # Hangup, not errors
//
// The revoked grant tombstone of the segment plane is the ring's
// hangup signal. If the producer's domain is destroyed (or calls
// Hangup), the grant is revoked and every consumer access fails; if
// the consumer's domain is destroyed, the CondemnDomainFrom sweep revokes
// the grant and the producer finds out at the next Push. Both sides
// surface this as ErrHangup — distinct from shm.ErrNoGrant, which
// means a capability that never existed. Unconsumed records are lost
// on hangup, mirroring the paper's segment-fault semantics: the
// mapping is gone, so the data is too.
//
// # Tuning
//
// Burst size (records per Notify) is the lever: per-record overhead
// is roughly 10 + crossing/burst cycles, where crossing ≈ 700 under
// the default cost model, so burst 16 breaks even with batched calls
// and burst ≥ 32 wins decisively. Slot count bounds the producer's
// lead over the consumer; 2x the burst lets one burst be produced
// while the previous one drains. Slot size only reserves payload
// space — it does not appear in the steady-state cost at all.
//
// ARCHITECTURE.md at the repository root specifies the wire format and
// ordering rules alongside the full cost-model table and the layer
// diagram this plane slots into.
package ring
