#include "storage/sim_disk_manager.h"

#include <cstring>
#include <mutex>

namespace lruk {

SimDiskManager::SimDiskManager(SimDiskOptions options) : options_(options) {}

Status SimDiskManager::ReadPage(PageId p, char* out) {
  std::lock_guard<std::mutex> guard(latch_);
  auto it = pages_.find(p);
  if (it == pages_.end()) {
    ++stats_.read_failures;
    return Status::NotFound("read of unallocated page " + std::to_string(p));
  }
  std::memcpy(out, it->second.get(), kPageSize);
  ++stats_.reads;
  stats_.simulated_micros += options_.read_micros;
  return Status::Ok();
}

Status SimDiskManager::WritePage(PageId p, const char* data) {
  std::lock_guard<std::mutex> guard(latch_);
  auto it = pages_.find(p);
  if (it == pages_.end()) {
    ++stats_.write_failures;
    return Status::NotFound("write of unallocated page " + std::to_string(p));
  }
  std::memcpy(it->second.get(), data, kPageSize);
  ++stats_.writes;
  stats_.simulated_micros += options_.write_micros;
  return Status::Ok();
}

Result<PageId> SimDiskManager::AllocatePage() {
  std::lock_guard<std::mutex> guard(latch_);
  PageId p;
  if (!free_list_.empty()) {
    p = free_list_.back();
    free_list_.pop_back();
  } else {
    p = next_page_id_++;
  }
  pages_.emplace(p, std::make_unique<char[]>(kPageSize));  // Zeroed.
  ++stats_.allocations;
  return p;
}

Status SimDiskManager::DeallocatePage(PageId p) {
  std::lock_guard<std::mutex> guard(latch_);
  auto it = pages_.find(p);
  if (it == pages_.end()) {
    return Status::NotFound("deallocation of unallocated page " +
                            std::to_string(p));
  }
  pages_.erase(it);
  free_list_.push_back(p);
  ++stats_.deallocations;
  return Status::Ok();
}

uint64_t SimDiskManager::NumAllocatedPages() const {
  std::lock_guard<std::mutex> guard(latch_);
  return pages_.size();
}

}  // namespace lruk
