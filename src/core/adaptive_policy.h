// Adaptive meta-policy: online expert selection with ghost caches.
//
// The paper fixes K, the Correlated Reference Period, and the Retained
// Information Period per workload (Section 5). This policy picks among
// whole policies online instead, in the spirit of expert-mixing cache
// management (EEvA, arXiv:2405.00154; AWRP, arXiv:1107.4851): it wraps a
// set of ordinary ReplacementPolicy experts (LRU-K, ARC, 2Q, LFU, ...) and
//
//   * keeps every expert's *live* instance synchronized with the true
//     resident set (all of them see every RecordAccess/Admit/Remove/pin),
//     but lets only the currently *active* expert choose eviction victims;
//   * runs one *ghost cache* per expert — a key-only shadow simulation of
//     that expert alone at the same capacity, fed the raw reference
//     stream — whose miss count is the expert's would-have-missed regret
//     signal;
//   * compares per-expert ghost misses over a sliding window (a ring of
//     fixed-width buckets) and switches the active expert with hysteresis:
//     a challenger must beat the incumbent by a relative margin, the
//     incumbent must have accumulated a minimum number of window misses,
//     and switches are rate-limited by a cooldown.
//
// Composition with the pools: Evict/EvictBatch/Restore forward to the
// active expert exactly, so with a single expert this wrapper is
// behaviourally identical to the bare expert (including LRU-K's deferred
// EvictBatch retention and exact Restore — the fixed-expert differential
// test asserts byte equality). Victims are Remove()d from the non-active
// experts when nominated and re-Admit()ed if the pool Restores them; the
// nominating expert is remembered per in-flight victim so a delayed
// Restore (write-behind failure after an expert switch) still routes to
// the expert whose Evict produced it. Switch decisions run only on
// clock-ticking paths (RecordAccess/RecordAccessBatch/Admit), never inside
// Evict/EvictBatch — a batch nomination can therefore never straddle an
// expert change.

#ifndef LRUK_CORE_ADAPTIVE_POLICY_H_
#define LRUK_CORE_ADAPTIVE_POLICY_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/replacement_policy.h"
#include "core/types.h"

namespace lruk {

// One configured expert: a live instance (mirrors the true resident set)
// and a ghost instance (shadow-simulates the expert alone).
struct AdaptiveExpert {
  std::string name;
  std::unique_ptr<ReplacementPolicy> live;
  std::unique_ptr<ReplacementPolicy> ghost;
};

struct AdaptivePolicyOptions {
  // Frame budget of the ghost simulations; must equal the owning pool's
  // (shard's) capacity for the regret signal to be meaningful. Required.
  size_t capacity = 0;
  // Sliding regret window, in references, and the number of ring buckets
  // it is divided into. Switch decisions are evaluated once per bucket
  // rotation (every window_refs / window_buckets references).
  uint64_t window_refs = 4096;
  size_t window_buckets = 8;
  // Hysteresis: a challenger switches in only if its window misses are at
  // most (1 - switch_margin) of the incumbent's, the incumbent has at
  // least min_window_misses in the window, and at least cooldown_refs
  // references have passed since the last switch.
  double switch_margin = 0.10;
  uint64_t min_window_misses = 16;
  uint64_t cooldown_refs = 1024;
  // Record each ghost's victim sequence (tests: the ghost-exactness grid).
  bool record_ghost_victims = false;
};

class AdaptivePolicy final : public ReplacementPolicy {
 public:
  // `experts` must be non-empty; every expert needs both instances.
  AdaptivePolicy(std::vector<AdaptiveExpert> experts,
                 AdaptivePolicyOptions options);
  ~AdaptivePolicy() override;

  void SetReferencingProcess(uint32_t process) override;
  void PrepareAdmit(PageId p) override;
  void RecordAccess(PageId p, AccessType type) override;
  void RecordAccessBatch(const AccessRecord* records, size_t n) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  size_t EvictBatch(size_t k, std::vector<PageId>* out) override;
  void Restore(PageId p) override;
  void Remove(PageId p) override;
  void SetEvictable(PageId p, bool evictable) override;
  size_t ResidentCount() const override;
  size_t EvictableCount() const override;
  bool IsResident(PageId p) const override;
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return name_; }
  MetaPolicyStats GetMetaStats() const override;

  // --- Introspection (tests, benches) ---

  size_t num_experts() const { return experts_.size(); }
  size_t active_expert() const { return active_; }
  uint64_t switches() const { return switches_; }
  uint64_t evaluations() const { return evaluations_; }
  const std::string& expert_name(size_t i) const { return experts_[i].name; }
  const ReplacementPolicy& expert_live(size_t i) const {
    return *experts_[i].live;
  }
  const ReplacementPolicy& expert_ghost(size_t i) const {
    return *experts_[i].ghost;
  }
  uint64_t ghost_misses(size_t i) const { return cum_ghost_misses_[i]; }
  uint64_t window_ghost_misses(size_t i) const {
    return window_ghost_misses_[i];
  }
  uint64_t window_meta_misses() const { return window_meta_misses_; }
  uint64_t total_meta_misses() const { return total_meta_misses_; }
  // Victim sequence of ghost i; empty unless record_ghost_victims.
  const std::vector<PageId>& ghost_victims(size_t i) const {
    return ghost_victims_[i];
  }
  const AdaptivePolicyOptions& options() const { return options_; }

 private:
  struct Bucket {
    std::vector<uint64_t> ghost_misses;
    uint64_t meta_misses = 0;
  };

  // Shared tail of every reference-observing path: feeds the ghosts,
  // advances the window, and (on bucket rotation) evaluates a switch.
  void OnReference(PageId p, AccessType type, bool live_miss);
  void ObserveGhost(size_t i, PageId p, AccessType type);
  void RotateBucket();
  void MaybeSwitch();
  // Books a victim nominated by the active expert: removes it from the
  // other live experts and remembers the nominator for Restore routing.
  void BookVictim(PageId v);

  std::vector<AdaptiveExpert> experts_;
  AdaptivePolicyOptions options_;
  std::string name_;
  size_t active_ = 0;
  uint32_t current_process_ = 0;

  // Sliding window ring. buckets_[bucket_index_] accumulates; the window
  // sums are maintained incrementally on rotation.
  std::vector<Bucket> buckets_;
  size_t bucket_index_ = 0;
  uint64_t refs_in_bucket_ = 0;
  uint64_t bucket_refs_ = 0;
  std::vector<uint64_t> window_ghost_misses_;
  uint64_t window_meta_misses_ = 0;
  std::vector<uint64_t> cum_ghost_misses_;
  uint64_t total_meta_misses_ = 0;
  std::vector<uint64_t> active_refs_;
  std::vector<uint64_t> selections_;

  uint64_t refs_since_switch_ = 0;
  uint64_t switches_ = 0;
  uint64_t evaluations_ = 0;
  bool in_evict_batch_ = false;

  // In-flight victims: page -> index of the expert whose Evict nominated
  // it. Entries are dropped on Restore or on a later re-admission of the
  // page; pages evicted and never referenced again keep a 16-byte entry,
  // the same order of residual state as LRU-K's retained history.
  std::unordered_map<PageId, size_t> evicted_by_;

  std::vector<std::vector<PageId>> ghost_victims_;
};

}  // namespace lruk

#endif  // LRUK_CORE_ADAPTIVE_POLICY_H_
