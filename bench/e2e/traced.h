// Tracing decorators for the traced run: TracedPool sits between BTree /
// HeapFile and the BufferPool, TracedPolicy between the BufferPool and its
// replacement policy. Both forward every call unchanged (the self-test
// checks that a traced run produces the same device and pool counts as an
// untraced one) and open a span around each call that does work.

#ifndef LRUK_BENCH_E2E_TRACED_H_
#define LRUK_BENCH_E2E_TRACED_H_

#include <memory>
#include <utility>
#include <vector>

#include "bufferpool/pool_interface.h"
#include "core/replacement_policy.h"
#include "trace.h"

namespace lruk::e2e {

class TracedPool final : public PoolInterface {
 public:
  // `inner` must outlive this object.
  explicit TracedPool(PoolInterface* inner) : inner_(inner) {}

  Result<Page*> FetchPage(PageId p, AccessType type) override {
    Span span(Op::kFetchHit);
    return inner_->FetchPage(p, type);
  }
  Result<Page*> NewPage() override {
    Span span(Op::kNewPage);
    return inner_->NewPage();
  }
  Status UnpinPage(PageId p, bool dirty) override {
    Span span(Op::kUnpin);
    return inner_->UnpinPage(p, dirty);
  }
  Status FlushPage(PageId p) override {
    Span span(Op::kPoolOther);
    return inner_->FlushPage(p);
  }
  Status FlushAll() override {
    Span span(Op::kPoolOther);
    return inner_->FlushAll();
  }
  Status DeletePage(PageId p) override {
    Span span(Op::kPoolOther);
    return inner_->DeletePage(p);
  }
  size_t capacity() const override { return inner_->capacity(); }
  size_t ResidentCount() const override { return inner_->ResidentCount(); }
  bool IsResident(PageId p) const override { return inner_->IsResident(p); }
  BufferPoolStats stats() const override { return inner_->stats(); }
  BufferPoolStats StatsSnapshot() const override {
    return inner_->StatsSnapshot();
  }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  PoolInterface* inner_;
};

class TracedPolicy final : public ReplacementPolicy {
 public:
  explicit TracedPolicy(std::unique_ptr<ReplacementPolicy> inner)
      : inner_(std::move(inner)) {}

  void SetReferencingProcess(uint32_t process) override {
    inner_->SetReferencingProcess(process);
  }
  void PrepareAdmit(PageId p) override {
    Span span(Op::kPrepareAdmit);
    inner_->PrepareAdmit(p);
  }
  void RecordAccess(PageId p, AccessType type) override {
    Span span(Op::kRecordAccess);
    inner_->RecordAccess(p, type);
  }
  void RecordAccessBatch(const AccessRecord* records, size_t n) override {
    Span span(Op::kRecordAccessBatch);
    if (tls_trace != nullptr) tls_trace->CountDrainedRecords(n);
    inner_->RecordAccessBatch(records, n);
  }
  void Admit(PageId p, AccessType type) override {
    Span span(Op::kAdmit);
    inner_->Admit(p, type);
  }
  std::optional<PageId> Evict() override {
    Span span(Op::kEvict);
    return inner_->Evict();
  }
  size_t EvictBatch(size_t k, std::vector<PageId>* out) override {
    Span span(Op::kEvict);
    return inner_->EvictBatch(k, out);
  }
  void Restore(PageId p) override {
    Span span(Op::kRestore);
    inner_->Restore(p);
  }
  void Remove(PageId p) override {
    Span span(Op::kRemove);
    inner_->Remove(p);
  }
  void SetEvictable(PageId p, bool evictable) override {
    Span span(Op::kSetEvictable);
    inner_->SetEvictable(p, evictable);
  }
  size_t ResidentCount() const override { return inner_->ResidentCount(); }
  size_t EvictableCount() const override { return inner_->EvictableCount(); }
  bool IsResident(PageId p) const override { return inner_->IsResident(p); }
  void ForEachResident(
      const std::function<void(PageId)>& visit) const override {
    inner_->ForEachResident(visit);
  }
  std::string_view Name() const override { return inner_->Name(); }
  MetaPolicyStats GetMetaStats() const override {
    return inner_->GetMetaStats();
  }

 private:
  std::unique_ptr<ReplacementPolicy> inner_;
};

}  // namespace lruk::e2e

#endif  // LRUK_BENCH_E2E_TRACED_H_
