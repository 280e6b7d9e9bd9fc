#include "io/io_dispatcher.h"

#include <utility>

namespace lruk {

IoDispatcher::IoDispatcher(size_t writers) {
  LRUK_ASSERT(writers >= 1, "a write-behind queue needs a writer thread");
  writers_.reserve(writers);
  for (size_t i = 0; i < writers; ++i) {
    writers_.emplace_back([this] { WriterLoop(); });
  }
}

IoDispatcher::~IoDispatcher() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& writer : writers_) writer.join();
  // Writers drain the queue before exiting, so nothing accepted is lost.
  LRUK_ASSERT(queue_.empty(), "dispatcher destroyed with queued work");
}

void IoDispatcher::WriterLoop() {
  std::unique_lock<std::mutex> guard(mutex_);
  for (;;) {
    work_cv_.wait(guard, [&] { return !queue_.empty() || stopping_; });
    if (queue_.empty()) return;  // stopping_ and fully drained.
    Item item = std::move(queue_.front());
    queue_.pop_front();
    ++executing_;
    ++stats_.executed;
    const double waited = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - item.enqueued)
                              .count();
    stats_.wait_micros += waited;
    if (waited > stats_.max_wait_micros) stats_.max_wait_micros = waited;
    guard.unlock();
    item.fn();
    guard.lock();
    --executing_;
    if (queue_.empty() && executing_ == 0) idle_cv_.notify_all();
  }
}

bool IoDispatcher::TryPost(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (queue_.size() >= kIoLaneDepth) {
      ++stats_.rejected;
      return false;
    }
    ++stats_.accepted;
    queue_.push_back({std::move(fn), std::chrono::steady_clock::now()});
    if (queue_.size() > stats_.queue_highwater) {
      stats_.queue_highwater = queue_.size();
    }
  }
  work_cv_.notify_one();
  return true;
}

void IoDispatcher::Drain() {
  std::unique_lock<std::mutex> guard(mutex_);
  idle_cv_.wait(guard, [&] { return queue_.empty() && executing_ == 0; });
}

size_t IoDispatcher::QueueDepth() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return queue_.size();
}

IoDispatcherStats IoDispatcher::stats() const {
  IoDispatcherStats stats;
  std::lock_guard<std::mutex> guard(mutex_);
  stats.lanes[static_cast<size_t>(IoClass::kFlush)] = stats_;
  return stats;
}

}  // namespace lruk
