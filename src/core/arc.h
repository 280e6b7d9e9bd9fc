// ARC — Adaptive Replacement Cache (Megiddo & Modha, FAST 2003), the most
// prominent descendant of the LRU-2 / 2Q lineage this paper started.
// Included as a forward-looking comparison point: like LRU-K it
// distinguishes recency from frequency and keeps history past residence
// (ghost lists B1/B2 play the role of the Retained Information Period),
// but it replaces LRU-K's fixed parameters with a self-tuning target `p`
// that continuously rebalances the recency (T1) and frequency (T2) sides.
//
// Structure:
//   T1 — pages seen once recently (resident)        |T1| + |T2| <= c
//   T2 — pages seen at least twice recently         (the cache)
//   B1 — ghost ids recently evicted from T1         |T1| + |B1| <= c
//   B2 — ghost ids recently evicted from T2         total <= 2c
//   p  — adaptive target for |T1| (0 <= p <= c)
//
// Interface mapping: the victim that REPLACE() picks depends on whether
// the faulting page sits in B2, so callers must announce the incoming
// page via PrepareAdmit(p) before Evict() — ReferenceStep and the buffer
// pool both do. Pinned pages are skipped from the tail of the chosen
// side, falling over to the other side when necessary. A pool may admit
// into a free frame with no Evict before it (a deleted page's frame, or
// the spare frames of an allocation batch), so Admit keeps the directory
// bounds (|T1| + |B1| <= c, the four lists <= 2c) itself.

#ifndef LRUK_CORE_ARC_H_
#define LRUK_CORE_ARC_H_

#include <list>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "core/replacement_policy.h"

namespace lruk {

class ArcPolicy final : public ReplacementPolicy {
 public:
  // `capacity` is c, the number of buffer frames ARC manages.
  explicit ArcPolicy(size_t capacity);

  void PrepareAdmit(PageId p) override { pending_ = p; }
  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  void SetEvictable(PageId p, bool evictable) override;
  size_t ResidentCount() const override { return entries_.size(); }
  size_t EvictableCount() const override { return evictable_count_; }
  bool IsResident(PageId p) const override { return entries_.contains(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "ARC"; }

  // Introspection for tests.
  size_t T1Size() const { return t1_.size(); }
  size_t T2Size() const { return t2_.size(); }
  size_t B1Size() const { return b1_.size(); }
  size_t B2Size() const { return b2_.size(); }
  double target_p() const { return p_; }
  bool InGhostB1(PageId p) const { return b1_index_.contains(p); }
  bool InGhostB2(PageId p) const { return b2_index_.contains(p); }

 private:
  enum class Queue { kT1, kT2 };

  struct Entry {
    Queue queue;
    std::list<PageId>::iterator pos;
    bool evictable = true;
  };

  using GhostIndex = std::unordered_map<PageId, std::list<PageId>::iterator>;

  // Megiddo-Modha REPLACE: demotes the LRU page of T1 or T2 (per the `p`
  // target and whether the incoming page is a B2 ghost) to the matching
  // ghost list. Skips pinned pages; returns nullopt if everything is
  // pinned.
  std::optional<PageId> Replace(bool incoming_in_b2);

  // Evicts from `list`'s tail skipping pinned pages; demotes the victim
  // to `ghost` when non-null.
  std::optional<PageId> EvictTail(std::list<PageId>& list,
                                  std::list<PageId>* ghost,
                                  GhostIndex* ghost_index);

  void DropGhostLru(std::list<PageId>& ghost, GhostIndex& index);

  size_t capacity_;
  double p_ = 0.0;

  std::list<PageId> t1_;  // MRU at front.
  std::list<PageId> t2_;
  std::list<PageId> b1_;  // Most recent ghost at front.
  std::list<PageId> b2_;
  std::unordered_map<PageId, Entry> entries_;
  GhostIndex b1_index_;
  GhostIndex b2_index_;
  size_t evictable_count_ = 0;
  std::optional<PageId> pending_;
};

}  // namespace lruk

#endif  // LRUK_CORE_ARC_H_
