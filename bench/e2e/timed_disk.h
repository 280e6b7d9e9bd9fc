// The bench's device: a DiskManager decorator that gives every read and
// write a fixed service time by sleeping, and counts operations per table.
//
// The sleep is std::this_thread::sleep_for(200us), so a device operation
// costs what the host's timer makes of it — these are the host's
// latencies, not a disk's. Threads that issue device operations call
// UsePreciseSleeps() first: with the default 50us timer slack a 200us sleep
// measured ~260us p50 / ~300us p99 on a 4-vCPU KVM guest, with 1ns slack
// ~204us / ~213us. The pool with default options holds its latch across
// device calls, so device time is also latch hold time.
//
// Tables are page-id ranges: BeginTable(name) claims every page allocated
// from then on. That relies on the wrapped manager handing out dense,
// monotonically increasing ids, which SimDiskManager does as long as no
// page is deallocated (the bench never deallocates).

#ifndef LRUK_BENCH_E2E_TIMED_DISK_H_
#define LRUK_BENCH_E2E_TIMED_DISK_H_

#include <sys/prctl.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/disk_manager.h"
#include "trace.h"
#include "util/macros.h"

namespace lruk::e2e {

// Sets the calling thread's timer slack to 1ns, so the device's sleeps last
// their nominal time plus wake-up latency.
inline void UsePreciseSleeps() {
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
}

class TimedDisk final : public DiskManager {
 public:
  static constexpr auto kServiceTime = std::chrono::microseconds(200);
  static constexpr size_t kMaxTables = 8;

  struct Counters {
    std::array<uint64_t, kMaxTables> reads{};
    std::array<uint64_t, kMaxTables> writes{};
    // Wall time with at least one operation in flight.
    uint64_t busy_ns = 0;

    uint64_t TotalReads() const { return Sum(reads); }
    uint64_t TotalWrites() const { return Sum(writes); }
    Counters operator-(const Counters& base) const {
      Counters d;
      for (size_t t = 0; t < kMaxTables; ++t) {
        d.reads[t] = reads[t] - base.reads[t];
        d.writes[t] = writes[t] - base.writes[t];
      }
      d.busy_ns = busy_ns - base.busy_ns;
      return d;
    }

   private:
    static uint64_t Sum(const std::array<uint64_t, kMaxTables>& a) {
      uint64_t total = 0;
      for (uint64_t v : a) total += v;
      return total;
    }
  };

  // `inner` must outlive this object. Pages allocated before the first
  // BeginTable belong to table 0, "other".
  explicit TimedDisk(DiskManager* inner) : inner_(inner) {
    starts_.push_back(0);
    names_.push_back("other");
  }

  // Claims every page allocated from now on for a new table; returns its
  // index. Call only while no other thread uses the disk.
  size_t BeginTable(std::string name) {
    LRUK_ASSERT(names_.size() < kMaxTables, "too many tables");
    starts_.push_back(inner_->NumAllocatedPages());
    names_.push_back(std::move(name));
    return names_.size() - 1;
  }
  const std::vector<std::string>& table_names() const { return names_; }

  Status ReadPage(PageId p, char* out) override {
    Span span(Op::kDiskRead);
    Status status = Serve([&] { return inner_->ReadPage(p, out); });
    if (status.ok()) {
      reads_[TableOf(p)].fetch_add(1, std::memory_order_relaxed);
    }
    return status;
  }

  Status WritePage(PageId p, const char* data) override {
    Span span(Op::kDiskWrite);
    Status status = Serve([&] { return inner_->WritePage(p, data); });
    if (status.ok()) {
      writes_[TableOf(p)].fetch_add(1, std::memory_order_relaxed);
    }
    return status;
  }

  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status DeallocatePage(PageId p) override { return inner_->DeallocatePage(p); }
  uint64_t NumAllocatedPages() const override {
    return inner_->NumAllocatedPages();
  }
  IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

  Counters Snapshot() const {
    Counters c;
    for (size_t t = 0; t < kMaxTables; ++t) {
      c.reads[t] = reads_[t].load(std::memory_order_relaxed);
      c.writes[t] = writes_[t].load(std::memory_order_relaxed);
    }
    std::lock_guard<std::mutex> lock(busy_mu_);
    c.busy_ns = busy_ns_;
    if (in_flight_ > 0) {
      c.busy_ns += static_cast<uint64_t>(NowNs() - busy_since_);
    }
    return c;
  }

 private:
  template <typename Fn>
  Status Serve(Fn&& op) {
    {
      std::lock_guard<std::mutex> lock(busy_mu_);
      if (in_flight_++ == 0) busy_since_ = NowNs();
    }
    std::this_thread::sleep_for(kServiceTime);
    Status status = op();
    {
      std::lock_guard<std::mutex> lock(busy_mu_);
      if (--in_flight_ == 0) {
        busy_ns_ += static_cast<uint64_t>(NowNs() - busy_since_);
      }
    }
    return status;
  }

  size_t TableOf(PageId p) const {
    auto it = std::upper_bound(starts_.begin(), starts_.end(), p);
    return static_cast<size_t>(it - starts_.begin()) - 1;
  }

  DiskManager* inner_;
  // Table t owns page ids [starts_[t], starts_[t + 1]); written only
  // during set-up.
  std::vector<PageId> starts_;
  std::vector<std::string> names_;
  std::array<std::atomic<uint64_t>, kMaxTables> reads_{};
  std::array<std::atomic<uint64_t>, kMaxTables> writes_{};
  mutable std::mutex busy_mu_;
  int in_flight_ = 0;
  int64_t busy_since_ = 0;
  uint64_t busy_ns_ = 0;
};

}  // namespace lruk::e2e

#endif  // LRUK_BENCH_E2E_TIMED_DISK_H_
