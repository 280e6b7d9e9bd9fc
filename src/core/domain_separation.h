// Domain Separation ([REITER], the paper's Section 1.1 "Page Pool Tuning"
// alternative): the DBA statically partitions the buffer into domains —
// "B-tree node pages would compete only against other node pages for
// buffers, data pages would compete only against other data pages" — each
// domain running plain LRU within its fixed allotment.
//
// This is the manually tuned baseline that LRU-K is meant to match without
// hints. It needs two pieces of external knowledge the self-reliant
// policies do without: a page -> domain classifier and per-domain
// capacities.
//
// Contract note: a faulting page may overflow its own domain while other
// domains still have room, so Admit() evicts *within the domain* when the
// domain is full even though the caller saw total ResidentCount() <
// capacity. Such internally evicted pages are queued and retrievable via
// TakeInternalEvictions() — ReferenceStep needs nothing (its residency is
// the policy's), but a buffer pool reclaiming frames would drain that
// queue.

#ifndef LRUK_CORE_DOMAIN_SEPARATION_H_
#define LRUK_CORE_DOMAIN_SEPARATION_H_

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/lru.h"
#include "core/replacement_policy.h"

namespace lruk {

struct DomainSeparationOptions {
  // Maps a page to its domain index in [0, domain_capacities.size()).
  std::function<uint32_t(PageId)> classifier;
  // Frames dedicated to each domain. The effective total capacity is the
  // sum; drive the simulator with exactly that capacity.
  std::vector<size_t> domain_capacities;
};

class DomainSeparationPolicy final : public ReplacementPolicy {
 public:
  explicit DomainSeparationPolicy(DomainSeparationOptions options);

  void PrepareAdmit(PageId p) override { pending_ = p; }
  void RecordAccess(PageId p, AccessType type) override;
  void Admit(PageId p, AccessType type) override;
  std::optional<PageId> Evict() override;
  void Remove(PageId p) override;
  void SetEvictable(PageId p, bool evictable) override;
  size_t ResidentCount() const override;
  size_t EvictableCount() const override;
  bool IsResident(PageId p) const override;
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override;
  std::string_view Name() const override { return "DOMAIN-SEP"; }

  // Pages evicted inside Admit() because their domain was full; cleared by
  // the call. See the header comment.
  std::vector<PageId> TakeInternalEvictions();

  size_t NumDomains() const { return domains_.size(); }
  size_t DomainResidentCount(uint32_t domain) const;

 private:
  uint32_t DomainOf(PageId p) const;

  DomainSeparationOptions options_;
  std::vector<std::unique_ptr<LruPolicy>> domains_;
  std::optional<PageId> pending_;
  std::vector<PageId> internal_evictions_;
};

}  // namespace lruk

#endif  // LRUK_CORE_DOMAIN_SEPARATION_H_
