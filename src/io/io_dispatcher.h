// The asynchronous I/O dispatcher: bounded per-class work queues served by
// N worker threads, sitting between the buffer pools and any DiskManager.
//
// Request classes (priority lanes), highest priority first:
//
//  * kDemand   — a caller is blocked on the result (a miss read). Served
//    with strict preference over the background lanes.
//  * kFlush    — dirty-page write-back running behind the eviction
//    decision: write-behind victim writes. Durability work — it must
//    complete eventually, but no caller is synchronously blocked on it in
//    the common case.
//  * kPrefetch — advisory readahead. The first casualty under pressure:
//    dropped when its lane is full, served last when demand is waiting.
//
// Submission surfaces:
//
//  * Run(fn, cls)     — the blocking lane. The caller needs the result
//    before it can proceed, so Run executes `fn` through the dispatcher
//    and returns only once it has run: on the calling thread in inline
//    mode, or on a worker after queueing (blocking while the class queue
//    is full) in worker mode. Defaults to kDemand.
//  * TryPost(fn, cls) — fire-and-forget. In worker mode it is enqueued
//    without blocking and rejected when the class queue is full —
//    background work must never stall a foreground miss; in inline mode
//    it runs immediately on the calling thread. Defaults to kPrefetch.
//
// Scheduling: workers pop Demand first. To bound background starvation,
// after kIoStarvationBudget consecutive demand dispatches while background
// work waits, one background item (Flush before Prefetch) is dispatched
// and the budget resets — so under sustained demand load every accepted
// background request still executes within a bounded number of demand
// dispatches (the anti-starvation property test asserts this). Each lane
// holds at most kIoLaneDepth queued items.
//
// Inline mode (workers == 0) is the determinism contract: every request
// executes synchronously on the thread that issued it, in issue order
// (priorities never reorder — there is no queue), so a single-threaded
// caller drives the disk through the dispatcher in exactly the same op
// sequence as calling the disk directly. This is what keeps the PR 4
// replay story intact — a (seed, fault-schedule) pair reproduces
// byte-identical traces with the dispatcher on.
//
// The dispatcher runs closures, not typed requests, on purpose: the
// per-page request tracker that coalesces concurrent misses needs the
// pool's page table and latch, so it lives in BufferPool (DESIGN.md
// "Async I/O dispatcher"); the dispatcher supplies the threads, the
// bounded lanes, and the completion signalling.
//
// Thread safety: all public methods are safe to call concurrently.
// Restriction: a closure running on a worker must not call Run on the
// same dispatcher (with one worker, Run would wait on a queue only itself
// could drain). TryPost from a worker is safe — it never blocks — and the
// pools use it (a worker-mode prefetch admission can defer a write-behind
// victim write).

#ifndef LRUK_IO_IO_DISPATCHER_H_
#define LRUK_IO_IO_DISPATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "util/macros.h"

namespace lruk {

// Request class = priority lane. Order is priority order (lower enumerator
// value wins); kIoClassCount sizes per-class arrays.
enum class IoClass : uint8_t { kDemand = 0, kFlush = 1, kPrefetch = 2 };
inline constexpr size_t kIoClassCount = 3;

inline const char* IoClassName(IoClass cls) {
  switch (cls) {
    case IoClass::kDemand:
      return "demand";
    case IoClass::kFlush:
      return "flush";
    case IoClass::kPrefetch:
      return "prefetch";
  }
  return "?";
}

// Capacity of EACH class lane in worker mode: Run() blocks while its lane
// is full, and TryPost() is refused instead. A pool drops a refused
// prefetch and writes a refused victim write on the evicting thread.
inline constexpr size_t kIoLaneDepth = 64;
// Anti-starvation bound: the maximum number of consecutive demand
// dispatches while background (Flush/Prefetch) work waits queued. Once the
// budget is spent, one background item is dispatched (Flush before
// Prefetch) and the budget resets.
inline constexpr size_t kIoStarvationBudget = 16;

// Per-lane cumulative counters. `accepted` counts submissions enqueued (or
// executed inline); `rejected` counts TryPost calls refused by a full
// lane; `queue_highwater` is the deepest this lane has been; the wait
// fields measure enqueue-to-dispatch latency on workers (0 in inline
// mode, where nothing ever queues).
struct IoLaneStats {
  uint64_t accepted = 0;
  uint64_t rejected = 0;
  uint64_t executed = 0;
  uint64_t queue_highwater = 0;
  double wait_micros = 0.0;      // Total enqueue->dispatch wait.
  double max_wait_micros = 0.0;  // Worst single wait.
};

// Cumulative dispatcher counters. The aggregate fields keep their PR 5
// meanings (`rejected` counts TryPost calls refused by a full lane,
// `queue_highwater` is the deepest the lanes have been in total); `lanes`
// breaks the same activity down per request class, and
// `starvation_grants` counts background dispatches forced by the
// anti-starvation budget while demand was still waiting.
struct IoDispatcherStats {
  uint64_t submitted = 0;        // Run() calls.
  uint64_t posted = 0;           // TryPost() calls accepted.
  uint64_t rejected = 0;         // TryPost() calls refused (lane full).
  uint64_t executed_inline = 0;  // Closures run on the submitting thread.
  uint64_t executed_async = 0;   // Closures run on a worker.
  uint64_t queue_highwater = 0;  // Across all lanes combined.
  uint64_t starvation_grants = 0;
  IoLaneStats lanes[kIoClassCount];

  const IoLaneStats& lane(IoClass cls) const {
    return lanes[static_cast<size_t>(cls)];
  }
};

class IoDispatcher {
 public:
  // `workers` threads serve the lanes. 0 = inline mode: no threads, no
  // queues, every submission executes synchronously on the caller.
  explicit IoDispatcher(size_t workers = 0);
  // Drains the lanes (workers finish every accepted item) and joins.
  ~IoDispatcher();
  LRUK_DISALLOW_COPY_AND_MOVE(IoDispatcher);

  bool inline_mode() const { return workers_.empty(); }

  // Blocking lane: executes `fn` through the dispatcher, returning once
  // it has run. Never rejected; blocks while the class lane is full.
  // Inline mode calls `fn` directly: no type erasure, no allocation, no
  // lock, so pools sharing one inline dispatcher never meet here.
  template <typename Fn>
  void Run(Fn&& fn, IoClass cls = IoClass::kDemand) {
    if (inline_mode()) {
      CountInline(inline_runs_, cls);
      fn();
      return;
    }
    // The caller blocks until `fn` has run, so the queued item may refer
    // to it (a reference_wrapper fits std::function's local buffer).
    RunOnWorker(std::ref(fn), cls);
  }

  // Fire-and-forget: returns false (and does not run `fn`) when the class
  // lane is full. Inline mode always runs and returns true.
  template <typename Fn>
  bool TryPost(Fn&& fn, IoClass cls = IoClass::kPrefetch) {
    if (inline_mode()) {
      CountInline(inline_posts_, cls);
      fn();
      return true;
    }
    return PostToWorker(std::forward<Fn>(fn), cls);
  }

  // Blocks until every accepted item has finished executing. New
  // submissions during the wait extend it.
  void Drain();

  // Items currently queued (not yet dispatched) in one lane.
  size_t LaneDepth(IoClass cls) const;

  IoDispatcherStats stats() const;

 private:
  struct Completion;  // Stack-allocated Run() completion signal (in .cc).
  struct Item {
    std::function<void()> fn;
    // Completion signal for Run(); null for TryPost items.
    Completion* completion = nullptr;
    std::chrono::steady_clock::time_point enqueued;
  };

  static void CountInline(std::atomic<uint64_t> (&counts)[kIoClassCount],
                          IoClass cls) {
    counts[static_cast<size_t>(cls)].fetch_add(1, std::memory_order_relaxed);
  }
  // Worker-mode bodies of Run and TryPost.
  void RunOnWorker(std::function<void()> fn, IoClass cls);
  bool PostToWorker(std::function<void()> fn, IoClass cls);

  size_t TotalQueuedLocked() const {
    return lanes_[0].size() + lanes_[1].size() + lanes_[2].size();
  }
  // Picks the next lane to dispatch from (the scheduling policy above).
  // Returns kIoClassCount when every lane is empty. Caller holds mutex_.
  size_t PickLaneLocked();
  void EnqueueLocked(Item item, IoClass cls);
  void WorkerLoop();

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // A lane became non-empty / stopping.
  std::condition_variable space_cv_;  // A lane lost an item (Run backpressure).
  std::condition_variable idle_cv_;   // Lanes empty and workers idle (Drain).
  std::deque<Item> lanes_[kIoClassCount];
  // Consecutive demand dispatches since the last background dispatch (or
  // since background work last started waiting).
  size_t demand_streak_ = 0;
  size_t executing_ = 0;  // Items currently running on workers.
  bool stopping_ = false;
  IoDispatcherStats stats_;
  // Inline-mode Run and TryPost calls per lane, counted without mutex_;
  // stats() folds them into the submitted/posted/executed_inline and lane
  // accepted/executed counts.
  std::atomic<uint64_t> inline_runs_[kIoClassCount] = {};
  std::atomic<uint64_t> inline_posts_[kIoClassCount] = {};
  std::vector<std::thread> workers_;
};

}  // namespace lruk

#endif  // LRUK_IO_IO_DISPATCHER_H_
