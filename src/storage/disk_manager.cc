#include "storage/disk_manager.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

namespace lruk {

void DiskManager::WritePages(std::span<PageWrite> writes) {
  // Each writer takes the next unwritten entry until none is left, so the
  // device sees up to MaxConcurrentWrites() writes at every moment of the
  // batch rather than in waves. A lone writer (the caller) goes in order.
  std::atomic<size_t> next{0};
  auto write_rest = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < writes.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      writes[i].status = WritePage(writes[i].page, writes[i].data);
    }
  };
  const size_t writers = std::min(writes.size(), MaxConcurrentWrites());
  std::vector<std::thread> helpers;
  helpers.reserve(writers > 0 ? writers - 1 : 0);
  for (size_t t = 1; t < writers; ++t) {
    try {
      helpers.emplace_back(write_rest);
    } catch (const std::system_error&) {
      break;  // No thread to be had: the writers already started finish.
    }
  }
  write_rest();  // The caller is a writer too.
  for (std::thread& helper : helpers) helper.join();
}

}  // namespace lruk
