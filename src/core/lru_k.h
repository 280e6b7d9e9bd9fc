// LRU-K — the paper's contribution (Definition 2.2 + Figure 2.1).
//
// On each uncorrelated reference the policy records the reference time in
// the page's history control block; the eviction victim is the page with
// the maximum Backward K-distance b_t(p,K), i.e. the minimum HIST(p,K),
// among pages outside their Correlated Reference Period. Pages with fewer
// than K recorded references have b_t(p,K) = infinity (HIST(p,K) == 0) and
// are preferred victims, ordered among themselves by classical LRU on
// HIST(p,1) — the paper's suggested subsidiary policy.
//
// Differences from the literal Figure 2.1 pseudo-code, all deliberate:
//  * The history shift loops run highest-index-first so they implement the
//    intended simultaneous shift (ascending sequential execution would
//    smear HIST(p,1) across all entries for K >= 3).
//  * A shift never turns an unknown entry (0) into a known one: for K >= 3
//    and a nonzero correlated-period adjustment, Figure 2.1 would
//    fabricate HIST(p,i) = correlation_period out of HIST(p,i-1) == 0.
//  * If every evictable page is inside its Correlated Reference Period the
//    paper's loop finds no victim; a buffer manager must still make room,
//    so we fall back to the best key regardless of eligibility and count
//    the event (fallback_evictions()).
//
// Victim search is a lazy min-heap keyed by (HIST(p,K), HIST(p,1), page)
// whose hit path is allocation- and rebalance-free (DESIGN.md "Victim
// search"). A property test drives it in lockstep with a naive Figure 2.1
// scan over the policy's public view to prove the two pick identical
// victims.

#ifndef LRUK_CORE_LRU_K_H_
#define LRUK_CORE_LRU_K_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <vector>

#include "core/history_table.h"
#include "core/replacement_policy.h"
#include "util/clock.h"

namespace lruk {

struct LruKOptions {
  // The K in LRU-K. K = 1 is classical LRU; the paper advocates K = 2.
  // Bounded by kMaxHistoryK (history is stored inline in the block).
  int k = 2;
  // Correlated Reference Period, in logical ticks (Section 2.1.1). 0 means
  // every reference is uncorrelated — the setting used for the paper's
  // simulation experiments (their workloads have no correlated bursts).
  Timestamp correlated_reference_period = 0;
  // Retained Information Period, in logical ticks (Section 2.1.2);
  // kInfinitePeriod keeps history forever (the paper's simulation setup).
  Timestamp retained_information_period = kInfinitePeriod;
  // How often (in ticks) the retained-information demon runs when the RIP
  // is finite. 0 disables the automatic demon (PurgeHistory() still works).
  uint64_t purge_interval = 4096;
  // Hard bound on history-only (non-resident) control blocks; 0 =
  // unbounded. When full, the longest-idle block is dropped — the memory
  // knob behind the paper's Section 5 open question, swept by
  // bench/ablation_memory_budget.
  size_t max_nonresident_history = 0;
  // Expected resident-page count (the owning pool's capacity). Pre-sizes
  // the history table's index (and the victim heap's backing store) so
  // warm-up does not rehash on every few admissions; 0 = no hint.
  // MakePolicy fills it from PolicyContext::capacity when unset.
  size_t capacity_hint = 0;
  // Distinguish processes when deciding whether a reference is correlated
  // (Section 2.1.1: intra-transaction / intra-process pairs are
  // correlated, inter-process pairs are independent). When true, a
  // re-reference within the CRP still counts as a NEW uncorrelated
  // reference if a different process issued it. Approximation: each page
  // remembers only its most recent referencing process, so an interleaved
  // A-B-A burst counts A's second touch as independent — conservative in
  // the direction of the paper's type-4 rule (inter-process references
  // are evidence of genuine popularity). Processes are announced via
  // SetReferencingProcess (ReferenceStep forwards AccessRecord::process).
  bool per_process_correlation = false;
  // Optional wall-clock time source (not owned; must outlive the policy).
  // When set, reference times come from the clock and the CRP / RIP /
  // purge_interval are in the clock's units (the paper's "5 seconds" /
  // "200 seconds" defaults become expressible directly). When null
  // (default), time is logical: one tick per reference.
  Clock* clock = nullptr;
};

class LruKPolicy final : public ReplacementPolicy {
 public:
  explicit LruKPolicy(LruKOptions options = {});

  void SetReferencingProcess(uint32_t process) override {
    current_process_ = process;
  }
  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  // History retention for a victim is *deferred*: nothing enters the
  // non-resident index (or burns the max_nonresident_history budget) until
  // the next Evict/EvictBatch/Admit/Remove call settles the still-evicted
  // victims. A victim Restored before that (a failed write-back) therefore
  // round-trips with zero retained-history churn, and no other page's
  // block was dropped to make room for it.
  std::optional<PageId> Evict() override;
  // Exact batch nomination: pops up to k victims in precisely the order k
  // Evict() calls would (the budget drops retention performs only affect
  // non-resident blocks, never victim selection, so deferring them cannot
  // change the sequence — the argument is spelled out in DESIGN.md
  // "Wait-free publish & batched nomination"). Retention is deferred as
  // for Evict.
  size_t EvictBatch(size_t k, std::vector<PageId>* out) override;
  // Exact un-evict: re-marks the page resident against its retained
  // history block, without ticking the clock — a failed write-back leaves
  // the policy byte-identical to the pre-Evict state. A block still in the
  // table is reinstated as is, however long the page has idled: it was
  // resident until its Evict, and a resident page's history never expires.
  // Only if the block is gone (dropped by the non-resident budget, or
  // purged by the RIP demon since) does the page restart with infinite
  // backward distance, i.e. preferred victim. The pending retention entry
  // of a restored victim is simply dropped at the next settle.
  void Restore(PageId p) override;
  void Remove(PageId p) override;
  void SetEvictable(PageId p, bool evictable) override;
  size_t ResidentCount() const override { return resident_count_; }
  size_t EvictableCount() const override { return evictable_count_; }
  bool IsResident(PageId p) const override;
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return name_; }

  // --- Introspection (tests, benches, EXPERIMENTS.md plumbing) ---

  const LruKOptions& options() const { return options_; }
  // Current logical time (count of references seen).
  Timestamp CurrentTime() const { return time_; }
  // b_t(p,K) at the current time; nullopt encodes infinity (page unknown,
  // history expired, or fewer than K uncorrelated references).
  std::optional<Timestamp> BackwardKDistance(PageId p) const;
  // The page's history block, or nullptr if none is retained.
  const HistoryBlock* DebugBlock(PageId p) const;
  // Number of history control blocks currently retained (resident +
  // non-resident).
  size_t HistorySize() const { return table_.size(); }
  // Approximate bytes those blocks occupy.
  size_t HistoryMemoryBytes() const {
    return table_.ApproximateMemoryBytes();
  }
  // History-only (non-resident) blocks currently retained.
  size_t NonResidentHistorySize() const {
    return table_.NonResidentCount();
  }
  // Entries in the lazy victim heap. May exceed EvictableCount() by the
  // stale/dangling entries not yet reaped, but tests assert it stays
  // bounded.
  size_t VictimHeapSize() const { return heap_.size(); }
  // Runs the retained-information demon immediately; returns blocks purged.
  size_t PurgeHistory() { return table_.PurgeExpired(time_); }
  // Evictions that had to ignore the Correlated Reference Period because no
  // eligible page existed.
  uint64_t fallback_evictions() const { return fallback_evictions_; }
  // Victims whose history retention is still deferred (neither settled
  // into the non-resident index nor cancelled by a Restore).
  size_t PendingDeferredEvictions() const {
    return deferred_evictions_.size();
  }

 private:
  struct VictimKey {
    Timestamp hist_k;  // 0 == infinite backward distance, evicted first.
    Timestamp hist1;   // Subsidiary LRU tie-break.
    PageId page;
    friend auto operator<=>(const VictimKey&, const VictimKey&) = default;
  };

  static VictimKey KeyFor(PageId p, const HistoryBlock& block) {
    return VictimKey{block.HistK(), block.Hist1(), p};
  }

  // Advances the logical clock by one reference and returns the new time.
  Timestamp Tick();
  // One victim pop: selection + de-indexing, shared by Evict and
  // EvictBatch. The block is only marked non-resident and queued on
  // deferred_evictions_.
  std::optional<PageId> EvictOne();
  // Settles deferred evictions: every queued page still
  // non-resident (i.e. not Restored meanwhile) enters the non-resident
  // history index, enforcing the budget. Called on entry to every
  // operation whose semantics depend on retention being current.
  void FlushDeferredEvictions();
  // Whether `block` is outside its Correlated Reference Period at time `t`.
  bool EligibleAt(const HistoryBlock& block, Timestamp t) const;
  // Pushes p's current key unless the heap already holds an entry for it
  // (block.in_victim_heap). Keeps the heap at ~one entry per page.
  void HeapPushIfAbsent(PageId p, HistoryBlock& block);
  // Victim search over the lazy heap.
  std::optional<PageId> PickVictim(Timestamp t);

  LruKOptions options_;
  std::string name_;
  Timestamp time_ = 0;
  Timestamp last_purge_time_ = 0;
  uint32_t current_process_ = 0;
  HistoryTable table_;
  // Min-heap of (possibly stale) keys; see DESIGN.md "Victim search" for
  // the staleness protocol.
  std::priority_queue<VictimKey, std::vector<VictimKey>,
                      std::greater<VictimKey>>
      heap_;
  size_t resident_count_ = 0;
  size_t evictable_count_ = 0;
  uint64_t fallback_evictions_ = 0;
  // Victims awaiting history retention (see EvictOne /
  // FlushDeferredEvictions). At most one batch deep in practice.
  std::vector<PageId> deferred_evictions_;
};

}  // namespace lruk

#endif  // LRUK_CORE_LRU_K_H_
