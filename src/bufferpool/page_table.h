// The buffer pool's resident-page index: an open-addressing hash table
// (linear probing, SplitMix64 — the HistoryTable's scheme) mapping PageId
// to FrameId, with a per-bucket version stamp that makes LOOKUPS safe
// without the pool latch while MUTATIONS stay serialized under it.
//
// Concurrency protocol (DESIGN.md §9 "Page table & pin protocol"):
//
//  * Every bucket carries an atomic version counter. Even = stable, odd =
//    a mutation is in progress. A mutator (always holding the pool latch)
//    bumps the version to odd before touching a bucket's payload and back
//    to even (original + 2) afterwards, so versions only grow and a bucket
//    whose version is even AND unchanged across a read window held its
//    payload constant through that window — a seqlock per bucket.
//  * An optimistic reader probes without any lock: load version, load
//    payload, and treat ANY instability — odd version, version changed,
//    page absent, probe too long — as "fall back to the latched path".
//    False negatives are therefore harmless (the latched path re-checks
//    authoritatively); the protocol only has to make false POSITIVES
//    impossible, which is what Validate() after the speculative pin is
//    for (see BufferPool::FetchPage).
//  * Deletion is backward-shift (no tombstones), exactly like the
//    HistoryTable's, except every moved entry bumps both buckets'
//    versions so a reader can never validate against a relocated slot.
//    The table never grows: it is sized at construction for `capacity`
//    live entries at a load factor <= 1/2 (residents are bounded by the
//    pool's frame count), so probes always terminate at an empty bucket.
//  * LockBucket/Unlock* expose the version dance to the pool's eviction
//    and deletion paths, which must invalidate a bucket BEFORE
//    checking the frame's pin count (the store-load handshake that makes
//    "no frame is evicted or reused while an optimistic reader is
//    mid-validation" hold; see the pin protocol notes in buffer_pool.h).
//
// Memory ordering: all version/payload atomics use seq_cst. The handshake
// needs store-load ordering (Dekker-style) between a mutator's odd-version
// store + pin-count load and a reader's pin fetch_add + version re-load;
// seq_cst everywhere makes that airtight, keeps TSan exact, and costs
// nothing on the hit path (seq_cst loads are plain loads on x86/ARM —
// the only RMW a hit performs is the pin CAS it needs anyway).

#ifndef LRUK_BUFFERPOOL_PAGE_TABLE_H_
#define LRUK_BUFFERPOOL_PAGE_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "util/macros.h"

namespace lruk {

class PageTable {
 public:
  // Sizes the table for up to `capacity` live entries (the pool's frame
  // count): bucket count is the next power of two >= 2 * capacity, so the
  // load factor never exceeds 1/2 and the table never needs to grow.
  explicit PageTable(size_t capacity);
  LRUK_DISALLOW_COPY_AND_MOVE(PageTable);

  size_t size() const { return size_; }
  size_t bucket_count() const { return mask_ + 1; }

  // --- Latched surface (caller holds the pool latch) ---

  bool contains(PageId p) const { return FindBucket(p) != kNpos; }
  // Looks up p; returns false if absent.
  bool Find(PageId p, FrameId* frame) const;
  // Inserts p -> frame. Precondition: p is absent and size() < capacity.
  void Insert(PageId p, FrameId frame);
  // Locks p's bucket: version goes odd, so every optimistic reader that
  // probed it falls back (and any reader that pins afterwards fails
  // validation). Returns the bucket index for the matching Unlock call.
  // Precondition: p is present.
  size_t LockBucket(PageId p);
  // Releases a locked bucket with its mapping intact (version +2, even).
  void UnlockUnchanged(size_t bucket);
  // Releases a locked bucket by erasing its entry (backward shift; every
  // touched bucket's version is bumped).
  void UnlockErased(size_t bucket);
  // Releases several locked buckets by erasing their entries. A backward
  // shift moves the entries after the hole in its probe cluster, so a
  // still-locked entry there would move (and come unlocked); the entries
  // are therefore erased nearest their cluster's end first, and no erase
  // moves a bucket still locked. Reorders `buckets`.
  void UnlockErased(std::span<size_t> buckets);
  // Visits every (page, frame) pair in unspecified order. Caller holds the
  // latch; the callback must not mutate the table.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Bucket& b : buckets_) {
      PageId p = b.page.load(std::memory_order_relaxed);
      if (p != kInvalidPageId) {
        fn(p, b.frame.load(std::memory_order_relaxed));
      }
    }
  }

  // --- Optimistic surface (no latch) ---

  // A consistent (version, frame) observation of p's bucket.
  struct Snapshot {
    uint64_t version = 0;
    FrameId frame = 0;
    size_t bucket = 0;
  };

  // Why an optimistic probe gave up — the pool re-exports these as the
  // fallback_probe_miss / fallback_version_conflict / fallback_resize
  // counters so bench output can attribute latched fallbacks.
  enum class ProbeFail : uint8_t {
    kNone = 0,
    // A clean empty bucket terminated the probe: the page is absent (or a
    // concurrent backward shift left a transient hole — indistinguishable
    // without the latch, and the latched path re-checks either way).
    kMiss,
    // The bucket was mid-mutation (odd version) or its version moved
    // between the page and frame reads.
    kVersionConflict,
    // The displacement bound (a full ring scan) was exhausted without an
    // empty terminator — the overload condition a growable table would
    // resolve by resizing.
    kDisplacementBound,
  };

  // Probes for p without the latch. True = the bucket mapped p -> frame
  // with a stable (even) version across the reads; the caller may then
  // speculatively pin frames()[frame] and MUST re-check with Validate().
  // False = absent or unstable (`*why`, when non-null, says which); fall
  // back to the latched path (which is authoritative), never conclude a
  // miss from this alone.
  bool OptimisticFind(PageId p, Snapshot* out,
                      ProbeFail* why = nullptr) const;

  // True iff the bucket's version still equals the snapshot's — i.e. the
  // mapping held continuously since OptimisticFind, so a pin taken in
  // between landed on the right frame.
  bool Validate(const Snapshot& snap) const {
    return buckets_[snap.bucket].version.load() == snap.version;
  }

 private:
  struct Bucket {
    std::atomic<uint64_t> version{0};
    std::atomic<PageId> page{kInvalidPageId};
    std::atomic<FrameId> frame{0};
  };

  static constexpr size_t kNpos = static_cast<size_t>(-1);

  // SplitMix64 finalizer (same mix as HistoryTable and shard routing).
  static uint64_t Mix(PageId p) {
    uint64_t z = p + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t IdealBucket(PageId p) const { return Mix(p) & mask_; }
  // Authoritative probe under the latch; kNpos if absent.
  size_t FindBucket(PageId p) const;
  // Backward-shift erase starting from `hole`, whose version the caller
  // has already made odd. Leaves every touched bucket even again.
  void EraseFromLockedBucket(size_t hole);

  size_t mask_;
  size_t capacity_;
  size_t size_ = 0;
  std::vector<Bucket> buckets_;
};

}  // namespace lruk

#endif  // LRUK_BUFFERPOOL_PAGE_TABLE_H_
