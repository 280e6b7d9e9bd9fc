// In-memory simulated disk with a constant-service-time cost model.
//
// Thread safety: every operation is serialized by an internal latch, so
// the shards of a ShardedBufferPool (each holding only its own shard
// latch) may issue reads, write-backs and allocations concurrently. As the
// latch serializes operations anyway, RunBatch runs a batch in order on
// the caller's thread (MaxConcurrentIo is 1).
// stats() remains safe to read once concurrent operations have ceased.

#ifndef LRUK_STORAGE_SIM_DISK_MANAGER_H_
#define LRUK_STORAGE_SIM_DISK_MANAGER_H_

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"

namespace lruk {

struct SimDiskOptions {
  // Service time charged per operation, modeling a late-80s disk arm
  // (~15 accesses/second ~ 66 ms would be period-faithful; defaults use a
  // modern-ish 10 ms so example output reads naturally).
  double read_micros = 10000.0;
  double write_micros = 10000.0;
};

class SimDiskManager final : public DiskManager {
 public:
  explicit SimDiskManager(SimDiskOptions options = {});

  Status ReadPage(PageId p, char* out) override;
  Status WritePage(PageId p, const char* data) override;
  size_t MaxConcurrentIo() const override { return 1; }
  Result<PageId> AllocatePage() override;
  Status DeallocatePage(PageId p) override;
  uint64_t NumAllocatedPages() const override;

 private:
  bool Allocated(PageId p) const { return pages_.contains(p); }

  mutable std::mutex latch_;
  SimDiskOptions options_;
  PageId next_page_id_ = 0;
  std::vector<PageId> free_list_;
  // Each allocated page's image, allocated zeroed by AllocatePage on the
  // allocating thread (not by the first WritePage, which a wrapping
  // manager's RunBatch may run on one of its runner threads, each with its
  // own malloc arena).
  std::unordered_map<PageId, std::unique_ptr<char[]>> pages_;
};

}  // namespace lruk

#endif  // LRUK_STORAGE_SIM_DISK_MANAGER_H_
