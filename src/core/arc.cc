#include "core/arc.h"

#include <algorithm>

namespace lruk {

ArcPolicy::ArcPolicy(size_t capacity) : capacity_(capacity) {
  LRUK_ASSERT(capacity_ >= 1, "ARC requires a positive capacity");
}

void ArcPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "RecordAccess on a non-resident page");
  // Case I: a hit in T1 or T2 promotes to the MRU position of T2.
  if (it->second.queue == Queue::kT1) {
    t2_.splice(t2_.begin(), t1_, it->second.pos);
    it->second.queue = Queue::kT2;
  } else {
    t2_.splice(t2_.begin(), t2_, it->second.pos);
  }
  it->second.pos = t2_.begin();
}

void ArcPolicy::DropGhostLru(std::list<PageId>& ghost, GhostIndex& index) {
  if (ghost.empty()) return;
  index.erase(ghost.back());
  ghost.pop_back();
}

std::optional<PageId> ArcPolicy::EvictTail(std::list<PageId>& list,
                                           std::list<PageId>* ghost,
                                           GhostIndex* ghost_index) {
  for (auto it = list.rbegin(); it != list.rend(); ++it) {
    auto entry_it = entries_.find(*it);
    if (!entry_it->second.evictable) continue;
    PageId victim = *it;
    list.erase(std::next(it).base());
    entries_.erase(entry_it);
    --evictable_count_;
    if (ghost != nullptr) {
      ghost->push_front(victim);
      ghost_index->emplace(victim, ghost->begin());
    }
    return victim;
  }
  return std::nullopt;
}

std::optional<PageId> ArcPolicy::Replace(bool incoming_in_b2) {
  bool take_t1 =
      !t1_.empty() &&
      ((incoming_in_b2 && static_cast<double>(t1_.size()) == p_) ||
       static_cast<double>(t1_.size()) > p_);
  if (take_t1) {
    if (auto victim = EvictTail(t1_, &b1_, &b1_index_)) return victim;
    return EvictTail(t2_, &b2_, &b2_index_);  // T1 fully pinned.
  }
  if (auto victim = EvictTail(t2_, &b2_, &b2_index_)) return victim;
  return EvictTail(t1_, &b1_, &b1_index_);  // T2 empty or fully pinned.
}

std::optional<PageId> ArcPolicy::Evict() {
  // The victim choice depends on the page about to come in (set by
  // PrepareAdmit). Without a hint, fall back to a plain REPLACE.
  PageId x = pending_.value_or(kInvalidPageId);
  bool in_b1 = x != kInvalidPageId && b1_index_.contains(x);
  bool in_b2 = x != kInvalidPageId && b2_index_.contains(x);

  if (in_b1 || in_b2) {
    // Cases II/III: the ghost hit redirects REPLACE; `p` adapts in Admit.
    return Replace(in_b2);
  }
  // Case IV: a brand-new page.
  if (t1_.size() + b1_.size() == capacity_) {
    if (t1_.size() < capacity_) {
      DropGhostLru(b1_, b1_index_);
      return Replace(false);
    }
    // |T1| == c: evict T1's LRU outright, bypassing the ghost list.
    if (auto victim = EvictTail(t1_, nullptr, nullptr)) return victim;
    return EvictTail(t2_, &b2_, &b2_index_);  // T1 fully pinned.
  }
  if (t1_.size() + t2_.size() + b1_.size() + b2_.size() >= 2 * capacity_) {
    DropGhostLru(b2_, b2_index_);
  }
  return Replace(false);
}

void ArcPolicy::Admit(PageId p, AccessType /*type*/) {
  LRUK_ASSERT(!entries_.contains(p), "Admit on an already-resident page");
  if (pending_ == p) pending_.reset();

  auto ghost1 = b1_index_.find(p);
  if (ghost1 != b1_index_.end()) {
    // Case II: adapt p upward (favor recency) and promote into T2.
    double delta = b1_.empty()
                       ? 1.0
                       : std::max(1.0, static_cast<double>(b2_.size()) /
                                           static_cast<double>(b1_.size()));
    p_ = std::min(static_cast<double>(capacity_), p_ + delta);
    b1_.erase(ghost1->second);
    b1_index_.erase(ghost1);
    t2_.push_front(p);
    entries_.emplace(p, Entry{Queue::kT2, t2_.begin(), /*evictable=*/true});
    ++evictable_count_;
    return;
  }
  auto ghost2 = b2_index_.find(p);
  if (ghost2 != b2_index_.end()) {
    // Case III: adapt p downward (favor frequency) and promote into T2.
    double delta = b2_.empty()
                       ? 1.0
                       : std::max(1.0, static_cast<double>(b1_.size()) /
                                           static_cast<double>(b2_.size()));
    p_ = std::max(0.0, p_ - delta);
    b2_.erase(ghost2->second);
    b2_index_.erase(ghost2);
    t2_.push_front(p);
    entries_.emplace(p, Entry{Queue::kT2, t2_.begin(), /*evictable=*/true});
    ++evictable_count_;
    return;
  }
  // Case IV: first sighting goes to T1. An admission into a frame no Evict
  // emptied for it (a frame a deleted page or an allocation batch's early
  // victim left free) did none of Case IV's directory upkeep, so keep the
  // bounds here: |T1| + |B1| <= c, and the four lists <= 2c. After an
  // Evict both already hold with room for this page, and nothing is
  // dropped.
  if (t1_.size() + b1_.size() >= capacity_) {
    DropGhostLru(b1_, b1_index_);
  } else if (t1_.size() + t2_.size() + b1_.size() + b2_.size() >=
             2 * capacity_) {
    DropGhostLru(b2_, b2_index_);
  }
  t1_.push_front(p);
  entries_.emplace(p, Entry{Queue::kT1, t1_.begin(), /*evictable=*/true});
  ++evictable_count_;
}

void ArcPolicy::Remove(PageId p) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "Remove on a non-resident page");
  if (it->second.evictable) --evictable_count_;
  (it->second.queue == Queue::kT1 ? t1_ : t2_).erase(it->second.pos);
  entries_.erase(it);
}

void ArcPolicy::SetEvictable(PageId p, bool evictable) {
  auto it = entries_.find(p);
  LRUK_ASSERT(it != entries_.end(), "SetEvictable on a non-resident page");
  if (it->second.evictable != evictable) {
    it->second.evictable = evictable;
    evictable_count_ += evictable ? 1 : -1;
  }
}

void ArcPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  for (const auto& kv : entries_) visit(kv.first);
}

}  // namespace lruk
