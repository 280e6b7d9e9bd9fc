// The page replacement policy abstraction.
//
// A policy tracks the set of buffer-resident pages and chooses eviction
// victims. It owns its own logical clock: every RecordAccess/Admit call is
// one tick, matching the paper's convention that time is the index into the
// reference string.
//
// Contract (ReferenceStep below implements it; the BufferPool interleaves
// the same calls with frames, pins and I/O):
//
//   hit:   policy->RecordAccess(p, type);
//   miss:  policy->PrepareAdmit(p);
//          if (need room) victim = policy->Evict();   // then write back
//          policy->Admit(p, type);                    // p becomes resident
//
// Admit() also counts as the reference to p (one tick), so a trace of T
// references always advances the clock exactly T times regardless of the
// hit/miss split.
//
// Pinning: SetEvictable(p, false) removes p from Evict()'s candidate set
// without forgetting its statistics. The buffer pools never call it: their
// frames' pin counts are the ground truth, so they nominate with
// EvictBatch, skip pinned nominees and hand those back with Restore.
// Policies driven by ReferenceStep never see pins either.

#ifndef LRUK_CORE_REPLACEMENT_POLICY_H_
#define LRUK_CORE_REPLACEMENT_POLICY_H_

#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "core/meta_stats.h"
#include "core/types.h"
#include "util/macros.h"

namespace lruk {

class ReplacementPolicy {
 public:
  ReplacementPolicy() = default;
  virtual ~ReplacementPolicy() = default;
  LRUK_DISALLOW_COPY_AND_MOVE(ReplacementPolicy);

  // Announces which process issues the next RecordAccess/Admit. Policies
  // that implement per-process correlated-reference handling (LRU-K with
  // per_process_correlation) consume it; the default ignores it, matching
  // the paper's simplifying assumption that "references are not
  // distinguished by process".
  virtual void SetReferencingProcess(uint32_t /*process*/) {}

  // Announces that `p` is about to be admitted (the page that faulted).
  // Callers invoke this before Evict() on the miss path so policies whose
  // victim choice depends on the incoming page (ARC's ghost-directed
  // REPLACE, domain-separated partitions) can see it. Default: no-op;
  // most policies choose victims independently of the newcomer.
  virtual void PrepareAdmit(PageId /*p*/) {}

  // Records a reference to the resident page `p`. Precondition:
  // IsResident(p). One clock tick.
  virtual void RecordAccess(PageId p, AccessType type) = 0;

  // Applies `n` deferred references in order, each one clock tick, with
  // the same outcome as calling SetReferencingProcess + RecordAccess per
  // record. Precondition: every record's page is resident. Buffer pools
  // with batched access recording drain their AccessBuffer through this
  // entry point; policies may override it to exploit batch locality.
  virtual void RecordAccessBatch(const AccessRecord* records, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      SetReferencingProcess(records[i].process);
      RecordAccess(records[i].page, records[i].type);
    }
  }

  // Makes `p` resident and records the reference that faulted it in.
  // Precondition: !IsResident(p). One clock tick. The caller is responsible
  // for having created room (Evict) first; policies do not enforce a
  // capacity themselves.
  virtual void Admit(PageId p, AccessType type) = 0;

  // Selects a victim among evictable resident pages, removes it from the
  // resident set, and returns it. Returns nullopt when no page is
  // evictable. Does not tick the clock.
  virtual std::optional<PageId> Evict() = 0;

  // Batch victim nomination: pops up to `k` victims in exactly the order
  // repeated Evict() calls would return them, appends them to `*out`
  // (cleared first), and returns how many were nominated. Callers that
  // must skip ineligible nominees (the buffer pools' pinned frames) use
  // this to nominate once instead of paying an Evict/Restore
  // round-trip per skipped candidate; every
  // nominee the caller does not consume must still be handed back via
  // Restore, in reverse nomination order (a consumed nominee simply
  // stays evicted mid-sequence). The default is a literal Evict() loop;
  // policies that retain history on eviction (LRU-K) override it to defer
  // that retention until the nominations settle, so a nominate-then-
  // Restore round trip no longer churns the retained-history budget.
  virtual size_t EvictBatch(size_t k, std::vector<PageId>* out) {
    out->clear();
    while (out->size() < k) {
      std::optional<PageId> victim = Evict();
      if (!victim.has_value()) break;
      out->push_back(*victim);
    }
    return out->size();
  }

  // Re-registers a page Evict() returned, because the eviction's side
  // effects failed (the dirty write-back errored) or were provisional (a
  // skipped batch nominee; a write-behind victim write still in flight).
  // Precondition: !IsResident(p) and p was returned by Evict() with no
  // intervening Admit/Restore of p. Afterwards p is resident and
  // evictable again, as if Evict() had never chosen it. Callers use this
  // immediately (synchronous write-back failure), in LIFO order over a
  // batch (EvictBatch's unused nominees), or DELAYED — a failed
  // write-behind write re-admits its page after unrelated admissions and
  // evictions have happened. The default costs one clock tick by
  // re-admitting; policies that retain history (LRU-K) override it to
  // restore exactly from the retained block, without a tick (falling back
  // to a fresh re-admission if the history budget has since dropped it).
  virtual void Restore(PageId p) { Admit(p, AccessType::kRead); }

  // Forgets the resident page `p` without an eviction decision (e.g. the
  // containing object was deleted). Precondition: IsResident(p).
  virtual void Remove(PageId p) = 0;

  // Marks `p` (resident) as evictable or pinned. Newly admitted pages are
  // evictable. Precondition: IsResident(p).
  virtual void SetEvictable(PageId p, bool evictable) = 0;

  // Number of resident pages tracked by the policy.
  virtual size_t ResidentCount() const = 0;

  // Number of resident pages currently eligible for Evict().
  virtual size_t EvictableCount() const = 0;

  virtual bool IsResident(PageId p) const = 0;

  // Invokes `visit` for every resident page, in unspecified order. Used
  // for buffer-composition statistics; not a hot path.
  virtual void ForEachResident(
      const std::function<void(PageId)>& visit) const = 0;

  // Stable human-readable policy name ("LRU-2", "LFU", ...).
  virtual std::string_view Name() const = 0;

  // Meta-policy counters (per-expert regret, switch counts). Plain policies
  // report a default snapshot with `adaptive == false`; the adaptive
  // meta-policy overrides this. Pools surface it next to their own stats.
  virtual MetaPolicyStats GetMetaStats() const { return {}; }
};

// What one reference did: whether it hit, and the page its miss evicted
// (nullopt on a hit, and on a miss that found a free frame).
struct ReferenceOutcome {
  bool hit = false;
  std::optional<PageId> victim;
};

// The contract above as one step of a buffer of `frames` frames under
// `policy`: announce the reference's process; on a hit record the access;
// on a miss announce the incoming page, evict when the buffer is full, and
// admit. The buffer's residency is the policy's. The simulator, the
// convergence harness, the adaptive policy's ghost caches and the tests'
// model of the buffer pool all run this step.
inline ReferenceOutcome ReferenceStep(ReplacementPolicy& policy,
                                      size_t frames,
                                      const AccessRecord& ref) {
  policy.SetReferencingProcess(ref.process);
  if (policy.IsResident(ref.page)) {
    policy.RecordAccess(ref.page, ref.type);
    return {.hit = true, .victim = std::nullopt};
  }
  ReferenceOutcome outcome;
  policy.PrepareAdmit(ref.page);
  if (policy.ResidentCount() >= frames) {
    outcome.victim = policy.Evict();
    LRUK_ASSERT(outcome.victim.has_value(),
                "policy failed to evict from a full, unpinned buffer");
  }
  policy.Admit(ref.page, ref.type);
  return outcome;
}

}  // namespace lruk

#endif  // LRUK_CORE_REPLACEMENT_POLICY_H_
