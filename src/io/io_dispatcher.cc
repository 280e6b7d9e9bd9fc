#include "io/io_dispatcher.h"

#include <utility>

namespace lruk {

namespace {
double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}
}  // namespace

// Stack-allocated completion signal for Run(): the submitting thread waits
// on it, the executing worker fires it. Lives in the submitter's frame, so
// the worker must touch it only before signalling.
struct IoDispatcher::Completion {
  std::mutex m;
  std::condition_variable cv;
  bool done = false;
};

IoDispatcher::IoDispatcher(size_t workers) {
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

IoDispatcher::~IoDispatcher() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Workers drain the lanes before exiting, so nothing accepted is lost.
  LRUK_ASSERT(TotalQueuedLocked() == 0, "dispatcher destroyed with queued work");
}

size_t IoDispatcher::PickLaneLocked() {
  constexpr size_t kDemand = static_cast<size_t>(IoClass::kDemand);
  size_t background = kIoClassCount;
  for (size_t lane = kDemand + 1; lane < kIoClassCount; ++lane) {
    if (!lanes_[lane].empty()) {
      background = lane;
      break;
    }
  }
  if (!lanes_[kDemand].empty()) {
    // Strict demand preference — until the anti-starvation budget runs
    // out with background work still waiting.
    if (background == kIoClassCount ||
        demand_streak_ < kIoStarvationBudget) {
      ++demand_streak_;
      return kDemand;
    }
    demand_streak_ = 0;
    ++stats_.starvation_grants;
    return background;
  }
  demand_streak_ = 0;
  return background;  // kIoClassCount when everything is empty.
}

void IoDispatcher::EnqueueLocked(Item item, IoClass cls) {
  size_t lane = static_cast<size_t>(cls);
  item.enqueued = std::chrono::steady_clock::now();
  lanes_[lane].push_back(std::move(item));
  IoLaneStats& ls = stats_.lanes[lane];
  if (lanes_[lane].size() > ls.queue_highwater) {
    ls.queue_highwater = lanes_[lane].size();
  }
  size_t total = TotalQueuedLocked();
  if (total > stats_.queue_highwater) stats_.queue_highwater = total;
}

void IoDispatcher::WorkerLoop() {
  std::unique_lock<std::mutex> guard(mutex_);
  for (;;) {
    work_cv_.wait(guard, [&] { return TotalQueuedLocked() > 0 || stopping_; });
    size_t lane = PickLaneLocked();
    if (lane == kIoClassCount) return;  // stopping_ and fully drained.
    Item item = std::move(lanes_[lane].front());
    lanes_[lane].pop_front();
    ++executing_;
    ++stats_.executed_async;
    IoLaneStats& ls = stats_.lanes[lane];
    ++ls.executed;
    double waited = MicrosSince(item.enqueued);
    ls.wait_micros += waited;
    if (waited > ls.max_wait_micros) ls.max_wait_micros = waited;
    space_cv_.notify_all();
    guard.unlock();
    item.fn();
    if (item.completion != nullptr) {
      std::lock_guard<std::mutex> signal(item.completion->m);
      item.completion->done = true;
      item.completion->cv.notify_all();
    }
    guard.lock();
    --executing_;
    if (TotalQueuedLocked() == 0 && executing_ == 0) idle_cv_.notify_all();
  }
}

void IoDispatcher::RunOnWorker(std::function<void()> fn, IoClass cls) {
  size_t lane = static_cast<size_t>(cls);
  Completion completion;
  {
    std::unique_lock<std::mutex> guard(mutex_);
    ++stats_.submitted;
    space_cv_.wait(guard,
                   [&] { return lanes_[lane].size() < kIoLaneDepth; });
    ++stats_.lanes[lane].accepted;
    EnqueueLocked(Item{std::move(fn), &completion, {}}, cls);
  }
  work_cv_.notify_one();
  std::unique_lock<std::mutex> wait(completion.m);
  completion.cv.wait(wait, [&] { return completion.done; });
}

bool IoDispatcher::PostToWorker(std::function<void()> fn, IoClass cls) {
  size_t lane = static_cast<size_t>(cls);
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (lanes_[lane].size() >= kIoLaneDepth) {
      ++stats_.rejected;
      ++stats_.lanes[lane].rejected;
      return false;
    }
    ++stats_.posted;
    ++stats_.lanes[lane].accepted;
    EnqueueLocked(Item{std::move(fn), nullptr, {}}, cls);
  }
  work_cv_.notify_one();
  return true;
}

void IoDispatcher::Drain() {
  std::unique_lock<std::mutex> guard(mutex_);
  idle_cv_.wait(guard,
                [&] { return TotalQueuedLocked() == 0 && executing_ == 0; });
}

size_t IoDispatcher::LaneDepth(IoClass cls) const {
  std::lock_guard<std::mutex> guard(mutex_);
  return lanes_[static_cast<size_t>(cls)].size();
}

IoDispatcherStats IoDispatcher::stats() const {
  IoDispatcherStats stats;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stats = stats_;
  }
  for (size_t lane = 0; lane < kIoClassCount; ++lane) {
    const uint64_t runs = inline_runs_[lane].load(std::memory_order_relaxed);
    const uint64_t posts = inline_posts_[lane].load(std::memory_order_relaxed);
    stats.submitted += runs;
    stats.posted += posts;
    stats.executed_inline += runs + posts;
    stats.lanes[lane].accepted += runs + posts;
    stats.lanes[lane].executed += runs + posts;
  }
  return stats;
}

}  // namespace lruk
