// In-memory simulated disk with a constant-service-time cost model.
//
// Thread safety: every operation may be called from any thread. Reads and
// writes look their page up under a shared lock, so operations on
// different pages run in parallel; AllocatePage and DeallocatePage take it
// exclusively. Operations on one page are ordered by a stripe mutex keyed
// by the page id, so a read never sees half of a write. The counters are
// relaxed atomics: stats() is exact once concurrent operations have
// ceased, and single-threaded it returns the totals, simulated_micros
// included, bit for bit as a serial count would. RunBatch still runs a
// batch in order on the caller's thread (MaxConcurrentIo is 1): the cost
// model charges every operation in full, so overlapping gains nothing.

#ifndef LRUK_STORAGE_SIM_DISK_MANAGER_H_
#define LRUK_STORAGE_SIM_DISK_MANAGER_H_

#include <array>
#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
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
  IoStats stats() const override;
  void ResetStats() override;

 private:
  // Orders the operations on one page: page p takes stripe p % kStripes.
  static constexpr size_t kStripes = 16;

  // Runs copy(image) on `p`'s image under p's stripe and counts the
  // outcome as a write or a read.
  template <typename Copy>
  Status Transfer(PageId p, bool write, Copy copy);

  SimDiskOptions options_;
  // Guards the page map and the allocator: shared for a lookup, exclusive
  // to allocate or deallocate.
  mutable std::shared_mutex map_latch_;
  PageId next_page_id_ = 0;
  std::vector<PageId> free_list_;
  // Each allocated page's image, allocated zeroed by AllocatePage on the
  // allocating thread (not by the first WritePage, which a wrapping
  // manager's RunBatch may run on one of its runner threads, each with its
  // own malloc arena).
  std::unordered_map<PageId, std::unique_ptr<char[]>> pages_;
  std::array<std::mutex, kStripes> stripes_;

  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> allocations_{0};
  std::atomic<uint64_t> deallocations_{0};
  std::atomic<uint64_t> read_failures_{0};
  std::atomic<uint64_t> write_failures_{0};
  std::atomic<double> simulated_micros_{0.0};
};

}  // namespace lruk

#endif  // LRUK_STORAGE_SIM_DISK_MANAGER_H_
