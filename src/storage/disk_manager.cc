#include "storage/disk_manager.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/macros.h"

namespace lruk {

namespace {

// Runs one entry of a batch. A read that starts after a write of its batch
// failed (`write_failed`, shared by the batch's runners) is not issued.
void RunEntry(DiskManager& disk, PageIo& io, std::atomic<bool>& write_failed) {
  if (io.kind == PageIo::Kind::kWrite) {
    io.status = disk.WritePage(io.page, io.data);
    if (!io.status.ok()) write_failed.store(true, std::memory_order_relaxed);
  } else if (write_failed.load(std::memory_order_relaxed)) {
    io.status = Status::Aborted("read not issued: a write of its batch "
                                "failed");
  } else {
    io.status = disk.ReadPage(io.page, io.data);
  }
}

}  // namespace

// The persistent threads that run shares of concurrent batches beside
// their callers (see RunBatch in the header).
class DiskManager::Runners {
 public:
  explicit Runners(DiskManager& disk) : disk_(disk) {}
  LRUK_DISALLOW_COPY_AND_MOVE(Runners);

  ~Runners() {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      stop_ = true;
    }
    work_.notify_all();
    for (std::thread& runner : threads_) runner.join();
  }

  // Runs `batch` (two or more entries) with at most `max_in_flight`
  // operations at once: on the caller and up to `max_in_flight` - 1
  // runners. Returns false, having run nothing, if no runner is free.
  bool TryRun(std::span<PageIo> batch, size_t max_in_flight) {
    LRUK_ASSERT(batch.size() < (uint64_t{1} << 32), "batch too large");
    // The caller claims the last entry before any runner can see the job.
    Job job(batch, batch.size() - 1);
    const size_t helpers = std::min(batch.size(), max_in_flight) - 1;
    size_t shares = 0;
    {
      std::lock_guard<std::mutex> guard(mutex_);
      // Runners neither in a share nor promised to another batch's offer.
      auto idle = [&] { return threads_.size() - busy_ - offered_; };
      while (idle() < helpers && threads_.size() < max_in_flight - 1) {
        try {
          threads_.emplace_back([this] { Serve(); });
        } catch (const std::system_error&) {
          break;  // No thread to be had: the runners already started serve.
        }
      }
      shares = std::min(helpers, idle());
      if (shares > 0) {
        job.offered = shares;
        offered_ += shares;
        open_.push_back(&job);
      }
    }
    if (shares == 0) return false;
    for (size_t i = 0; i < shares; ++i) work_.notify_one();
    RunEntry(disk_, batch.back(), job.write_failed);
    RunShare(job, /*from_back=*/true);
    std::unique_lock<std::mutex> lock(mutex_);
    if (job.offered > 0) {  // Withdraw the shares no runner took.
      offered_ -= job.offered;
      job.offered = 0;
      open_.erase(std::find(open_.begin(), open_.end(), &job));
    }
    job.done.wait(lock, [&] { return job.running == 0; });
    return true;
  }

 private:
  // A batch being run. Its untaken entries are [front, back), packed into
  // one word so that the caller (from the back) and runners (from the
  // front) each claim one with a single compare-and-swap.
  struct Job {
    Job(std::span<PageIo> b, uint64_t back) : batch(b), untaken(back) {}
    std::span<PageIo> batch;
    std::atomic<uint64_t> untaken;  // front << 32 | back.
    std::atomic<bool> write_failed{false};
    size_t offered = 0;  // Shares on offer that no runner took (mutex_).
    size_t running = 0;  // Runners in a share of this job (mutex_).
    std::condition_variable done;  // `running` fell to 0.
  };

  // Runs untaken entries of `job` until none is left.
  void RunShare(Job& job, bool from_back) {
    uint64_t untaken = job.untaken.load(std::memory_order_relaxed);
    for (;;) {
      const uint64_t front = untaken >> 32;
      const uint64_t back = untaken & 0xffffffffu;
      if (front == back) return;
      const uint64_t rest =
          from_back ? untaken - 1 : untaken + (uint64_t{1} << 32);
      if (!job.untaken.compare_exchange_weak(untaken, rest,
                                             std::memory_order_relaxed)) {
        continue;
      }
      RunEntry(disk_, job.batch[from_back ? back - 1 : front],
               job.write_failed);
      untaken = job.untaken.load(std::memory_order_relaxed);
    }
  }

  // A runner's life: park until a share is offered, run it, repeat.
  void Serve() {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      work_.wait(lock, [&] { return stop_ || !open_.empty(); });
      if (open_.empty()) return;  // Stopping, and no batch is running.
      Job& job = *open_.front();
      if (--job.offered == 0) open_.erase(open_.begin());
      --offered_;
      ++busy_;
      ++job.running;
      lock.unlock();
      RunShare(job, /*from_back=*/false);
      lock.lock();
      --busy_;
      if (--job.running == 0) job.done.notify_one();
    }
  }

  DiskManager& disk_;
  std::mutex mutex_;
  std::condition_variable work_;  // A share is on offer, or stop_.
  std::vector<Job*> open_;        // Jobs with shares on offer, oldest first.
  size_t offered_ = 0;            // Their shares on offer, in all.
  size_t busy_ = 0;               // Runners in a share.
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

DiskManager::DiskManager() : runners_(std::make_unique<Runners>(*this)) {}

DiskManager::~DiskManager() = default;

void DiskManager::RunBatch(std::span<PageIo> batch) {
  const size_t max_in_flight = MaxConcurrentIo();
  if (batch.size() > 1 && max_in_flight > 1 &&
      runners_->TryRun(batch, max_in_flight)) {
    return;
  }
  // A batch of one, a serial manager, or no runner free: in order, here.
  std::atomic<bool> write_failed{false};
  for (PageIo& io : batch) RunEntry(*this, io, write_failed);
}

}  // namespace lruk
