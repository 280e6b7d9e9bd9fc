#include "storage/disk_manager.h"

#include <algorithm>
#include <atomic>
#include <system_error>
#include <thread>
#include <vector>

namespace lruk {

void DiskManager::RunBatch(std::span<PageIo> batch) {
  // Each runner takes the next entry not yet taken until none is left, so
  // the device sees up to MaxConcurrentIo() operations at every moment of
  // the batch rather than in waves. A lone runner (the caller) goes in
  // order.
  std::atomic<size_t> next{0};
  std::atomic<bool> write_failed{false};
  auto run_rest = [&] {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < batch.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
      PageIo& io = batch[i];
      if (io.kind == PageIo::Kind::kWrite) {
        io.status = WritePage(io.page, io.data);
        if (!io.status.ok()) {
          write_failed.store(true, std::memory_order_relaxed);
        }
      } else if (write_failed.load(std::memory_order_relaxed)) {
        io.status = Status::Aborted("read not issued: a write of its batch "
                                    "failed");
      } else {
        io.status = ReadPage(io.page, io.data);
      }
    }
  };
  const size_t runners = std::min(batch.size(), MaxConcurrentIo());
  std::vector<std::thread> helpers;
  helpers.reserve(runners > 0 ? runners - 1 : 0);
  for (size_t t = 1; t < runners; ++t) {
    try {
      helpers.emplace_back(run_rest);
    } catch (const std::system_error&) {
      break;  // No thread to be had: the runners already started finish.
    }
  }
  run_rest();  // The caller is a runner too.
  for (std::thread& helper : helpers) helper.join();
}

}  // namespace lruk
