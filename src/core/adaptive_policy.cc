#include "core/adaptive_policy.h"

#include <algorithm>

#include "util/macros.h"

namespace lruk {

AdaptivePolicy::AdaptivePolicy(std::vector<AdaptiveExpert> experts,
                               AdaptivePolicyOptions options)
    : experts_(std::move(experts)), options_(options) {
  LRUK_ASSERT(!experts_.empty(), "adaptive policy needs at least one expert");
  LRUK_ASSERT(options_.capacity > 0,
              "adaptive policy needs the pool capacity for its ghost caches");
  LRUK_ASSERT(options_.window_buckets >= 1, "window needs at least one bucket");
  for (const AdaptiveExpert& e : experts_) {
    LRUK_ASSERT(e.live != nullptr && e.ghost != nullptr,
                "every adaptive expert needs a live and a ghost instance");
  }
  bucket_refs_ =
      std::max<uint64_t>(1, options_.window_refs / options_.window_buckets);
  buckets_.resize(options_.window_buckets);
  for (Bucket& b : buckets_) b.ghost_misses.resize(experts_.size(), 0);
  window_ghost_misses_.resize(experts_.size(), 0);
  cum_ghost_misses_.resize(experts_.size(), 0);
  active_refs_.resize(experts_.size(), 0);
  selections_.resize(experts_.size(), 0);
  ghost_victims_.resize(experts_.size());

  name_ = "adaptive(";
  for (size_t i = 0; i < experts_.size(); ++i) {
    if (i > 0) name_ += "+";
    name_ += experts_[i].name;
  }
  name_ += ")";
}

AdaptivePolicy::~AdaptivePolicy() = default;

void AdaptivePolicy::SetReferencingProcess(uint32_t process) {
  current_process_ = process;
  for (AdaptiveExpert& e : experts_) e.live->SetReferencingProcess(process);
}

void AdaptivePolicy::PrepareAdmit(PageId p) {
  for (AdaptiveExpert& e : experts_) e.live->PrepareAdmit(p);
}

void AdaptivePolicy::RecordAccess(PageId p, AccessType type) {
  for (AdaptiveExpert& e : experts_) e.live->RecordAccess(p, type);
  OnReference(p, type, /*live_miss=*/false);
}

void AdaptivePolicy::RecordAccessBatch(const AccessRecord* records,
                                       size_t n) {
  for (AdaptiveExpert& e : experts_) e.live->RecordAccessBatch(records, n);
  for (size_t i = 0; i < n; ++i) {
    current_process_ = records[i].process;
    OnReference(records[i].page, records[i].type, /*live_miss=*/false);
  }
}

void AdaptivePolicy::Admit(PageId p, AccessType type) {
  evicted_by_.erase(p);
  for (AdaptiveExpert& e : experts_) e.live->Admit(p, type);
  OnReference(p, type, /*live_miss=*/true);
}

std::optional<PageId> AdaptivePolicy::Evict() {
  std::optional<PageId> victim = experts_[active_].live->Evict();
  if (victim.has_value()) BookVictim(*victim);
  return victim;
}

size_t AdaptivePolicy::EvictBatch(size_t k, std::vector<PageId>* out) {
  in_evict_batch_ = true;
  size_t n = experts_[active_].live->EvictBatch(k, out);
  for (PageId v : *out) BookVictim(v);
  in_evict_batch_ = false;
  return n;
}

void AdaptivePolicy::BookVictim(PageId v) {
  for (size_t i = 0; i < experts_.size(); ++i) {
    if (i != active_) experts_[i].live->Remove(v);
  }
  evicted_by_[v] = active_;
}

void AdaptivePolicy::Restore(PageId p) {
  auto it = evicted_by_.find(p);
  // Unknown nominator can only mean the caller broke the Restore
  // precondition; routing to the active expert keeps the failure local.
  size_t nominator = it != evicted_by_.end() ? it->second : active_;
  if (it != evicted_by_.end()) evicted_by_.erase(it);
  for (size_t i = 0; i < experts_.size(); ++i) {
    if (i == nominator) {
      // The nominator gets its exact Restore (LRU-K: no tick, retained
      // history reinstated byte-identically).
      experts_[i].live->Restore(p);
    } else {
      // The others Removed the page at nomination; re-learn it as a fresh
      // admission. Their internal clocks tick — an accepted approximation,
      // invisible when a single expert is configured.
      experts_[i].live->Admit(p, AccessType::kRead);
    }
  }
}

void AdaptivePolicy::Remove(PageId p) {
  evicted_by_.erase(p);
  for (AdaptiveExpert& e : experts_) {
    e.live->Remove(p);
    if (e.ghost->IsResident(p)) e.ghost->Remove(p);
  }
}

void AdaptivePolicy::SetEvictable(PageId p, bool evictable) {
  for (AdaptiveExpert& e : experts_) e.live->SetEvictable(p, evictable);
}

size_t AdaptivePolicy::ResidentCount() const {
  return experts_[active_].live->ResidentCount();
}

size_t AdaptivePolicy::EvictableCount() const {
  return experts_[active_].live->EvictableCount();
}

bool AdaptivePolicy::IsResident(PageId p) const {
  return experts_[active_].live->IsResident(p);
}

void AdaptivePolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  experts_[active_].live->ForEachResident(visit);
}

void AdaptivePolicy::OnReference(PageId p, AccessType type, bool live_miss) {
  for (size_t i = 0; i < experts_.size(); ++i) ObserveGhost(i, p, type);
  Bucket& bucket = buckets_[bucket_index_];
  if (live_miss) {
    ++bucket.meta_misses;
    ++window_meta_misses_;
    ++total_meta_misses_;
  }
  ++active_refs_[active_];
  ++refs_since_switch_;
  if (++refs_in_bucket_ >= bucket_refs_) {
    refs_in_bucket_ = 0;
    RotateBucket();
    MaybeSwitch();
  }
}

void AdaptivePolicy::ObserveGhost(size_t i, PageId p, AccessType type) {
  // The simulator's reference step (ReferenceStep), so ghost victim
  // sequences are byte-identical to a standalone run of the expert at the
  // same capacity over the same reference stream — the ghost-exactness
  // property grid in tests/adaptive_policy_test.cc.
  const auto [hit, victim] =
      ReferenceStep(*experts_[i].ghost, options_.capacity,
                    {.page = p, .process = current_process_, .type = type});
  if (hit) return;
  ++buckets_[bucket_index_].ghost_misses[i];
  ++window_ghost_misses_[i];
  ++cum_ghost_misses_[i];
  if (victim.has_value() && options_.record_ghost_victims) {
    ghost_victims_[i].push_back(*victim);
  }
}

void AdaptivePolicy::RotateBucket() {
  bucket_index_ = (bucket_index_ + 1) % buckets_.size();
  // The slot we rotate into holds the counts from one full window ago;
  // retire them from the running sums before reuse.
  Bucket& reused = buckets_[bucket_index_];
  for (size_t i = 0; i < experts_.size(); ++i) {
    window_ghost_misses_[i] -= reused.ghost_misses[i];
    reused.ghost_misses[i] = 0;
  }
  window_meta_misses_ -= reused.meta_misses;
  reused.meta_misses = 0;
}

void AdaptivePolicy::MaybeSwitch() {
  if (experts_.size() < 2) return;
  if (refs_since_switch_ < options_.cooldown_refs) return;
  ++evaluations_;
  size_t best = active_;
  for (size_t i = 0; i < experts_.size(); ++i) {
    if (window_ghost_misses_[i] < window_ghost_misses_[best]) best = i;
  }
  if (best == active_) return;
  uint64_t incumbent = window_ghost_misses_[active_];
  if (incumbent < options_.min_window_misses) return;
  double bar = (1.0 - options_.switch_margin) * static_cast<double>(incumbent);
  if (static_cast<double>(window_ghost_misses_[best]) > bar) return;
  LRUK_ASSERT(!in_evict_batch_, "expert switch attempted mid-EvictBatch");
  active_ = best;
  ++switches_;
  ++selections_[best];
  refs_since_switch_ = 0;
}

MetaPolicyStats AdaptivePolicy::GetMetaStats() const {
  MetaPolicyStats s;
  s.adaptive = true;
  s.active_expert = active_;
  s.switches = switches_;
  s.evaluations = evaluations_;
  s.window_misses = window_meta_misses_;
  s.total_misses = total_meta_misses_;
  s.experts.resize(experts_.size());
  for (size_t i = 0; i < experts_.size(); ++i) {
    s.experts[i].name = experts_[i].name;
    s.experts[i].ghost_misses = cum_ghost_misses_[i];
    s.experts[i].window_misses = window_ghost_misses_[i];
    s.experts[i].active_refs = active_refs_[i];
    s.experts[i].selections = selections_[i];
  }
  return s;
}

}  // namespace lruk
