// Page reference history for LRU-K (Section 2.1.2 / 2.1.3 of the paper).
//
// Each tracked page has a history control block:
//   hist[0..K-1] — HIST(p,1)..HIST(p,K): the K most recent *uncorrelated*
//                  reference times, already adjusted for correlated-period
//                  collapse; 0 means "no such reference known".
//   last         — LAST(p): the raw time of the most recent reference,
//                  correlated or not.
//
// Blocks outlive buffer residency (the Page Reference Retained Information
// Problem): a page's block survives eviction and is purged only once the
// page has gone unreferenced for longer than the Retained Information
// Period. Purging is the job the paper assigns to "an asynchronous demon
// process"; here it is PurgeExpired(), invoked lazily by LruKPolicy on an
// amortized schedule (and available to callers directly).
//
// Storage layout (see DESIGN.md "Victim search"): the K
// timestamps live *inline* in the block (fixed array, K <= kMaxHistoryK),
// and blocks are allocated from a chunked slab with a free list, indexed
// by an open-addressing hash table (linear probing, backward-shift
// deletion) keyed by PageId. A hit therefore touches one index slot and
// one block — no per-block heap node, no bucket chain — and block
// addresses are stable across insertions (LruKPolicy and callers hold
// HistoryBlock* across table growth).

#ifndef LRUK_CORE_HISTORY_TABLE_H_
#define LRUK_CORE_HISTORY_TABLE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/types.h"
#include "util/macros.h"

namespace lruk {

// "Infinite" period: retained information is never purged. This matches the
// paper's simulation setup, where history is kept for the whole run.
inline constexpr Timestamp kInfinitePeriod =
    std::numeric_limits<Timestamp>::max();

// Upper bound on the K in LRU-K with inline history storage. The paper
// finds K = 2 sufficient and K = 3 already past the point of diminishing
// returns (Section 4), so 8 slots is generous; ParsePolicyName enforces the
// same bound.
inline constexpr int kMaxHistoryK = 8;

// HIST(p,1..K) as a fixed inline array with a runtime length of K. Keeps
// the std::vector surface the history code uses (size/operator[]/front/
// back and brace assignment) without the heap indirection.
class HistArray {
 public:
  HistArray() { v_.fill(0); }
  explicit HistArray(int k) : k_(static_cast<uint8_t>(k)) {
    LRUK_ASSERT(k >= 1 && k <= kMaxHistoryK,
                "LRU-K history depth must be in [1, kMaxHistoryK]");
    v_.fill(0);
  }

  // Assigns the leading entries and zeroes the rest ("no such reference").
  HistArray& operator=(std::initializer_list<Timestamp> values) {
    LRUK_ASSERT(values.size() <= k_, "more history entries than K");
    v_.fill(0);
    size_t i = 0;
    for (Timestamp t : values) v_[i++] = t;
    return *this;
  }

  size_t size() const { return k_; }
  Timestamp& operator[](size_t i) { return v_[i]; }
  const Timestamp& operator[](size_t i) const { return v_[i]; }
  Timestamp& front() { return v_[0]; }
  const Timestamp& front() const { return v_[0]; }
  // HIST(p,K): the oldest tracked reference.
  const Timestamp& back() const { return v_[k_ - 1]; }

 private:
  std::array<Timestamp, kMaxHistoryK> v_;
  uint8_t k_ = 1;
};

struct HistoryBlock {
  // hist[i] is HIST(p, i+1); hist[k-1] is the K-th most recent reference.
  // A value of 0 means the page has fewer than i+1 known uncorrelated
  // references (backward distance infinity for that depth).
  HistArray hist;
  // LAST(p): raw time of the most recent reference.
  Timestamp last = 0;
  // Process that issued the most recent reference (per-process
  // correlation mode only).
  uint32_t last_process = 0;
  // Whether the page currently occupies a buffer slot.
  bool resident = false;
  // Whether the page may be chosen as a victim (buffer-pool pinning).
  bool evictable = true;
  // LruKPolicy lazy-heap bookkeeping: whether the victim heap holds an
  // entry for this page. Owned by the policy, stored here so the hit path
  // needs no side lookup. Reset (like everything else) when retained
  // information expires — the policy re-pushes on the next Admit.
  bool in_victim_heap = false;

  // Default-constructible (K = 1) so slab chunks can be allocated as
  // arrays; HistoryTable re-initializes each block with its real K on
  // allocation.
  HistoryBlock() = default;
  explicit HistoryBlock(int k) : hist(k) {}

  // HIST(p, K): the key the LRU-K victim search minimizes. 0 encodes an
  // infinite Backward K-distance.
  Timestamp HistK() const { return hist.back(); }
  // HIST(p, 1): time of the most recent uncorrelated reference.
  Timestamp Hist1() const { return hist.front(); }
};

class HistoryTable {
 public:
  // `k` is the LRU-K depth (1 <= k <= kMaxHistoryK); `retained_
  // information_period` in logical ticks, kInfinitePeriod to disable
  // purging; `max_nonresident_blocks` bounds the history-only blocks (0 =
  // unbounded) — when the bound is exceeded, the non-resident block with
  // the oldest LAST is dropped (Section 5's open question about history
  // space, made a knob). `capacity_hint` (0 = none) pre-sizes the index
  // for the expected resident count plus non-resident headroom, so warm-up
  // admissions do not trigger a rehash storm.
  HistoryTable(int k, Timestamp retained_information_period,
               size_t max_nonresident_blocks = 0, size_t capacity_hint = 0);

  int k() const { return k_; }
  size_t size() const { return size_; }
  Timestamp retained_information_period() const { return rip_; }

  // Approximate bytes held by history control blocks — the memory the
  // Retained Information Period controls, the paper's open question in
  // Section 5. Charged per live block (block + its index-slot share at the
  // table's bounded load factor), not per slab-allocated capacity, so the
  // number tracks the retained set the way the RIP knob moves it
  // (bench/ablation_memory_budget divides a frame budget by this).
  size_t ApproximateMemoryBytes() const {
    return size_ * (sizeof(HistoryBlock) + 2 * sizeof(Slot));
  }

  // Returns the block for p, or nullptr if none is retained. The pointer
  // is stable until the block is erased (slab storage does not move).
  HistoryBlock* Find(PageId p) {
    size_t i = FindSlot(p);
    return i == kNpos ? nullptr : slots_[i].block;
  }
  const HistoryBlock* Find(PageId p) const {
    size_t i = FindSlot(p);
    return i == kNpos ? nullptr : slots_[i].block;
  }

  // Returns the block for p, creating a fresh one if absent. If a block
  // exists but its retained information has expired (now - last > RIP and
  // the page is not resident), the stale history is discarded first and the
  // returned block is fresh. `*had_history` reports whether prior history
  // survived.
  HistoryBlock& GetOrCreate(PageId p, Timestamp now, bool* had_history);

  // GetOrCreate without the expiry check: a block still in the table comes
  // back as is, whatever its age. For LruKPolicy::Restore, which undoes an
  // eviction rather than re-admitting the page.
  HistoryBlock& Reclaim(PageId p, bool* had_history);

  // Retains the history of a page that left the buffer: registers its
  // block, already marked non-resident, in the non-resident index and
  // enforces the non-resident block bound. LruKPolicy defers this step
  // until its evictions settle, so an evict-then-Restore round trip never
  // touches the budget. May free blocks (including, if everything else is
  // fresher, the one passed in) — callers must not dereference `block`
  // afterwards.
  void RetainEvicted(PageId p, HistoryBlock& block);

  // Drops the block for p entirely (page deleted from the database).
  void Erase(PageId p);

  // Number of history-only (non-resident) blocks currently retained.
  size_t NonResidentCount() const { return nonresident_.size(); }

  // The retained-information demon: drops every non-resident block with
  // now - last > RIP. Returns the number of blocks purged. O(table size).
  size_t PurgeExpired(Timestamp now);

  // Whether the block's retained information has expired at `now`.
  bool Expired(const HistoryBlock& block, Timestamp now) const;

  // Visits every (page, block) pair in unspecified order. The callback
  // must not insert or erase blocks.
  template <typename Fn>
  void ForEach(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.page != kInvalidPageId) fn(s.page, *s.block);
    }
  }
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.page != kInvalidPageId) {
        fn(s.page, static_cast<const HistoryBlock&>(*s.block));
      }
    }
  }

 private:
  // One open-addressing index entry; page == kInvalidPageId marks an
  // empty slot.
  struct Slot {
    PageId page = kInvalidPageId;
    HistoryBlock* block = nullptr;
  };

  static constexpr size_t kNpos = static_cast<size_t>(-1);
  // Blocks per slab chunk; chunks are never returned to the allocator, so
  // block addresses stay stable for the table's lifetime.
  static constexpr size_t kChunkBlocks = 256;

  // SplitMix64 finalizer: page ids are typically dense small integers, so
  // spread them before masking (same mix the sharded pool routes with).
  static uint64_t Mix(PageId p) {
    uint64_t z = p + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t IdealSlot(PageId p) const { return Mix(p) & mask_; }
  // Index of p's slot, or kNpos. Linear probe; terminates because the
  // load factor is capped well below 1.
  size_t FindSlot(PageId p) const;
  // Inserts a (page, block) pair not currently present, growing first if
  // the insert would push the load factor past ~0.7.
  void InsertSlot(PageId p, HistoryBlock* block);
  // Removes slot i with backward-shift deletion (no tombstones).
  void EraseSlotAt(size_t i);
  void Grow();
  HistoryBlock* AllocateBlock();

  int k_;
  Timestamp rip_;
  size_t max_nonresident_;
  size_t size_ = 0;
  size_t mask_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<HistoryBlock[]>> chunks_;
  std::vector<HistoryBlock*> free_blocks_;
  // Non-resident blocks ordered by LAST (oldest first). LAST of a
  // non-resident block never changes (a reference makes the page resident
  // again), so entries are stable until removal.
  std::set<std::pair<Timestamp, PageId>> nonresident_;
};

}  // namespace lruk

#endif  // LRUK_CORE_HISTORY_TABLE_H_
