#include "storage/sim_disk_manager.h"

#include <cstring>
#include <mutex>
#include <shared_mutex>
#include <string>

namespace lruk {

SimDiskManager::SimDiskManager(SimDiskOptions options) : options_(options) {}

template <typename Copy>
Status SimDiskManager::Transfer(PageId p, bool write, Copy copy) {
  {
    std::shared_lock<std::shared_mutex> map_guard(map_latch_);
    auto it = pages_.find(p);
    if (it == pages_.end()) {
      (write ? write_failures_ : read_failures_)
          .fetch_add(1, std::memory_order_relaxed);
      return Status::NotFound(std::string(write ? "write" : "read") +
                              " of unallocated page " + std::to_string(p));
    }
    std::lock_guard<std::mutex> page_guard(stripes_[p % kStripes]);
    copy(it->second.get());
  }
  (write ? writes_ : reads_).fetch_add(1, std::memory_order_relaxed);
  simulated_micros_.fetch_add(
      write ? options_.write_micros : options_.read_micros,
      std::memory_order_relaxed);
  return Status::Ok();
}

Status SimDiskManager::ReadPage(PageId p, char* out) {
  return Transfer(p, /*write=*/false, [&](const char* image) {
    std::memcpy(out, image, kPageSize);
  });
}

Status SimDiskManager::WritePage(PageId p, const char* data) {
  return Transfer(p, /*write=*/true, [&](char* image) {
    std::memcpy(image, data, kPageSize);
  });
}

Result<PageId> SimDiskManager::AllocatePage() {
  std::unique_lock<std::shared_mutex> guard(map_latch_);
  PageId p;
  if (!free_list_.empty()) {
    p = free_list_.back();
    free_list_.pop_back();
  } else {
    p = next_page_id_++;
  }
  pages_.emplace(p, std::make_unique<char[]>(kPageSize));  // Zeroed.
  allocations_.fetch_add(1, std::memory_order_relaxed);
  return p;
}

Status SimDiskManager::DeallocatePage(PageId p) {
  std::unique_lock<std::shared_mutex> guard(map_latch_);
  auto it = pages_.find(p);
  if (it == pages_.end()) {
    return Status::NotFound("deallocation of unallocated page " +
                            std::to_string(p));
  }
  pages_.erase(it);
  free_list_.push_back(p);
  deallocations_.fetch_add(1, std::memory_order_relaxed);
  return Status::Ok();
}

uint64_t SimDiskManager::NumAllocatedPages() const {
  std::shared_lock<std::shared_mutex> guard(map_latch_);
  return pages_.size();
}

IoStats SimDiskManager::stats() const {
  IoStats s;
  s.reads = reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.deallocations = deallocations_.load(std::memory_order_relaxed);
  s.read_failures = read_failures_.load(std::memory_order_relaxed);
  s.write_failures = write_failures_.load(std::memory_order_relaxed);
  s.simulated_micros = simulated_micros_.load(std::memory_order_relaxed);
  return s;
}

void SimDiskManager::ResetStats() {
  reads_.store(0, std::memory_order_relaxed);
  writes_.store(0, std::memory_order_relaxed);
  allocations_.store(0, std::memory_order_relaxed);
  deallocations_.store(0, std::memory_order_relaxed);
  read_failures_.store(0, std::memory_order_relaxed);
  write_failures_.store(0, std::memory_order_relaxed);
  simulated_micros_.store(0.0, std::memory_order_relaxed);
}

}  // namespace lruk
