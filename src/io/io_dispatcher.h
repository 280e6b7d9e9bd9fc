// Worker mode's write-behind queue: one bounded queue of victim writes
// served by N writer threads, between a worker-mode buffer pool and its
// DiskManager.
//
// A pool with BufferPoolOptions::io_workers > 0 copies each dirty
// victim's image aside, posts the victim's write here with TryPost and
// admits the new page at once; TryPost never blocks and is refused when
// kIoLaneDepth items are already queued, and the pool then writes that
// victim on the evicting thread. No read goes through the queue: every
// miss, in every pool, reads on the fetching thread. An inline pool
// (io_workers = 0, the default) constructs no dispatcher at all.
//
// The dispatcher runs closures, not typed requests, on purpose: the
// victim-write bookkeeping (the copied image, the fetches waiting on it,
// the re-admission of a failed write) needs the pool's page table and
// latch, so it lives in BufferPool (DESIGN.md §8 "The dispatcher"); the
// dispatcher supplies the threads, the bound and the counters.
//
// Thread safety: all public methods are safe to call concurrently. No
// closure running on a writer posts more work.

#ifndef LRUK_IO_IO_DISPATCHER_H_
#define LRUK_IO_IO_DISPATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace lruk {

// The slots of IoDispatcherStats::lanes. Every item is a victim write, in
// the kFlush slot; kDemand's slot stays, always 0, for readers that index
// the stats by class (bench/e2e's io.demand_wait_us_per_txn).
enum class IoClass : uint8_t { kDemand = 0, kFlush = 1 };
inline constexpr size_t kIoClassCount = 2;

inline const char* IoClassName(IoClass cls) {
  return cls == IoClass::kDemand ? "demand" : "flush";
}

// Capacity of the queue: TryPost is refused while this many items wait.
inline constexpr size_t kIoLaneDepth = 64;

// Cumulative queue counters. `accepted` counts TryPost calls enqueued,
// `rejected` those refused by a full queue, `executed` the items a writer
// ran; `queue_highwater` is the deepest the queue has been; the wait
// fields measure enqueue-to-dispatch latency.
struct IoLaneStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t executed = 0;
  uint64_t queue_highwater = 0;
  double wait_micros = 0.0;      // Total enqueue->dispatch wait.
  double max_wait_micros = 0.0;  // Worst single wait.
};

struct IoDispatcherStats {
  IoLaneStats lanes[kIoClassCount];  // The queue's counters in kFlush's.

  const IoLaneStats& lane(IoClass cls) const {
    return lanes[static_cast<size_t>(cls)];
  }
};

class IoDispatcher {
 public:
  // `writers` (at least 1) threads serve the queue.
  explicit IoDispatcher(size_t writers);
  // Lets the writers finish every accepted item, then joins them.
  ~IoDispatcher();
  LRUK_DISALLOW_COPY_AND_MOVE(IoDispatcher);

  // Queues `fn` for a writer without blocking. Returns false, and does not
  // run `fn`, when kIoLaneDepth items are already queued.
  bool TryPost(std::function<void()> fn);

  // Blocks until every accepted item has finished executing. New posts
  // during the wait extend it.
  void Drain();

  // Items queued, not yet taken by a writer.
  size_t QueueDepth() const;

  IoDispatcherStats stats() const;

 private:
  struct Item {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
  };

  void WriterLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;  // The queue became non-empty / stopping.
  std::condition_variable idle_cv_;  // Queue empty and writers idle (Drain).
  std::deque<Item> queue_;
  size_t executing_ = 0;  // Items currently running on writers.
  bool stopping_ = false;
  IoLaneStats stats_;
  std::vector<std::thread> writers_;
};

}  // namespace lruk

#endif  // LRUK_IO_IO_DISPATCHER_H_
