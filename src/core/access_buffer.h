// AccessBuffer — a fixed-capacity, lock-free staging area for page
// references, decoupling *observing* a reference (a hit that holds no pool
// latch) from *applying* it to a ReplacementPolicy (batch drain under the
// pool latch). It is the publish channel of the pools' latch-free hits,
// which every BufferPool takes (see DESIGN.md "The latch-free hit's
// publish channel" and "Wait-free publish & batched nomination").
//
// Structure: one or more stripes, each a bounded ring of sequence-numbered
// cells. A producer claims a ticket with a single fetch_add on the
// stripe's atomic tail (wait-free), then acquires its cell by CAS-ing the
// cell's sequence number from `ticket` to `ticket | kClaimedBit`, writes
// the `(page, process, access_type)` record, and publishes it with a
// release store of `ticket + 1`. No mutex anywhere on the push path. With
// `stripes == 1` the buffer is shared per pool (per shard); with more
// stripes each thread hashes to its own ring, so `stripes` at or above the
// expected thread count makes even the ticket fetch_add uncontended.
//
// Because claim and publish are not serialized, a producer preempted
// between them leaves a *gap*: records published behind it by other
// threads are stalled until it publishes. The drain handles gaps by
// stopping the stripe at the first claimed-but-unpublished cell (after a
// bounded spin) — FIFO order within the stripe is preserved, the stalled
// records are simply picked up by a later drain. The price is that a
// stalled record's page can be unpinned, and even evicted, before its
// reference is applied; pools therefore always drain with
// `skip_non_resident` set and surface the skipped records as
// `access_drops` (bounded staleness, not lost bookkeeping — every drop is
// counted). Serializing claim+publish under a per-stripe mutex would make
// gaps impossible, but would put a lock back on the warm hit path.
//
// Tickets can also be *abandoned*: TryPush refuses without touching a cell
// when the stripe is logically full, and a producer that loses its claim
// CAS (its ticket was sealed, or the previous lap is still unconsumed
// after a bounded spin) gives up the same way. The drain reclaims
// abandoned tickets by sealing them — CAS-ing the untouched cell from
// `ticket` to `ticket + ring` — so the ring never wedges on a ticket
// nobody will publish. A refused TryPush returns false and the caller
// takes the latch, drains, and applies its record directly; that record
// is never lost, though it may be applied ahead of records still stalled
// behind a gap (per-thread FIFO is exact for records that flow through
// the ring, best-effort across the refusal path).
//
// Draining runs under the pool latch (single consumer at a time) and
// applies records to the policy in per-stripe FIFO order via
// RecordAccessBatch; it synchronizes with producers only through the
// per-cell sequence numbers.

#ifndef LRUK_CORE_ACCESS_BUFFER_H_
#define LRUK_CORE_ACCESS_BUFFER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/replacement_policy.h"
#include "core/types.h"
#include "util/macros.h"

namespace lruk {

// Drain/push counters for a buffer's lifetime, exposed so benches can see
// what the drains amortize (bench/micro_contention prints records per
// drain).
struct AccessBufferStats {
  // Drain() calls, and how many records they applied in total.
  uint64_t drains = 0;
  uint64_t drained_records = 0;
  // Drains that found nothing published (pure overhead).
  uint64_t empty_drains = 0;
  // TryPush refusals — stripe logically full, ticket sealed by a drain, or
  // the previous lap's cell still unconsumed after the bounded spin. Each
  // one forced the caller onto the slow path: take the latch, drain, apply
  // directly.
  uint64_t full_pushes = 0;
  // Records dropped by a skip_non_resident drain instead of applied: their
  // page was evicted while the record was buffered (typically stalled
  // behind a publish gap). The pools re-export this as `access_drops`.
  uint64_t dropped_records = 0;

  AccessBufferStats& operator+=(const AccessBufferStats& o) {
    drains += o.drains;
    drained_records += o.drained_records;
    empty_drains += o.empty_drains;
    full_pushes += o.full_pushes;
    dropped_records += o.dropped_records;
    return *this;
  }
};

class AccessBuffer {
 public:
  // `capacity` (>= 1) is the per-stripe record count at which TryPush
  // starts refusing; the physical ring is the next power of two (min 2).
  // `stripes` >= 1; threads are spread across stripes by a per-thread id,
  // so stripes >= the expected thread count approximates one buffer per
  // thread.
  explicit AccessBuffer(size_t capacity, size_t stripes = 1);
  LRUK_DISALLOW_COPY_AND_MOVE(AccessBuffer);

  // Enqueue into the calling thread's stripe: one fetch_add to claim a
  // ticket, one CAS to acquire the cell, one release store to publish.
  // Lock-free (wait-free when uncontended and the drain keeps up). Returns
  // false when the stripe is full or the cell could not be acquired; the
  // caller then drains under its latch and applies the record itself.
  bool TryPush(const AccessRecord& record);

  // Applies every published record to `policy` in per-stripe FIFO order
  // (via RecordAccessBatch) and returns how many were applied. Caller must
  // hold the latch that serializes policy access: the drain is
  // single-consumer, while concurrent TryPush calls remain safe. A stripe
  // is consumed up to its first claimed-but-unpublished cell (a producer
  // preempted mid-publish); anything beyond stays buffered for the next
  // drain.
  //
  // With `skip_non_resident` set, records whose page is no longer resident
  // in `policy` are dropped instead of applied, and the number dropped is
  // added to `*dropped` (when non-null) and to stats(). The pools always
  // set this: with the lock-free publish path a record can stall behind a
  // gap past its page's eviction, and a latch-free hit's pin + publish +
  // unpin can complete entirely without the pool latch — either way the
  // drain may see records for pages already evicted, which the policy
  // must not be asked to apply.
  size_t Drain(ReplacementPolicy& policy, bool skip_non_resident = false,
               size_t* dropped = nullptr);

  // Per-stripe record count at which TryPush refuses (the configured
  // capacity; the physical ring may be one power-of-two larger).
  size_t stripe_capacity() const { return capacity_; }
  size_t stripe_count() const { return stripes_.size(); }

  // Lifetime counters. The drain-side fields are guarded by the caller's
  // latch (like Drain itself); full_pushes is accumulated with relaxed
  // atomics, so a concurrent reader sees a value at most a few pushes
  // stale — fine for bench reporting.
  AccessBufferStats stats() const {
    AccessBufferStats s = drain_stats_;
    s.full_pushes = full_pushes_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // Cell sequence protocol, for the producer holding `ticket` (ring = the
  // physical cell count):
  //   seq == ticket               free for this lap; claim it by CAS.
  //   seq == ticket | kClaimedBit claimed by us, record write in flight.
  //   seq == ticket + 1           published; drain may consume.
  //   seq == ticket + ring        consumed (or sealed) — the *next* lap's
  //                               free state.
  // The claim CAS is the only contended transition: it can lose to the
  // drain sealing an abandoned-looking ticket, in which case the producer
  // gives up and takes the slow path.
  static constexpr uint64_t kClaimedBit = uint64_t{1} << 63;
  // Bounded spins: a producer waiting for the previous lap's cell to be
  // consumed (drain overdue), and the drain waiting for a claimed cell to
  // be published (producer mid-write, a few stores away).
  static constexpr int kClaimSpins = 64;
  static constexpr int kPublishSpins = 128;

  struct Cell {
    std::atomic<uint64_t> seq{0};
    AccessRecord record;
  };

  // `tail` is the next producer ticket (fetch_add claim); `head` is the
  // next consumer ticket, written by the drain and read by producers for
  // the fullness check. Both only ever advance.
  struct Stripe {
    explicit Stripe(size_t capacity);
    std::vector<Cell> cells;
    alignas(64) std::atomic<uint64_t> tail{0};
    alignas(64) std::atomic<uint64_t> head{0};
  };

  // Stable small integer per thread, used to pick a stripe.
  static size_t ThreadIndex();

  size_t capacity_;
  size_t mask_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  // Drain-side scratch; guarded by the caller's latch like the drain.
  std::vector<AccessRecord> scratch_;
  // Drain-side counters, same guard as scratch_; full_pushes_ is updated
  // on the producer side without the latch.
  AccessBufferStats drain_stats_;
  std::atomic<uint64_t> full_pushes_{0};
};

}  // namespace lruk

#endif  // LRUK_CORE_ACCESS_BUFFER_H_
