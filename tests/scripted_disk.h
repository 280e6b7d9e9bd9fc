// ScriptedDisk: the one test device of the concurrency tests.
//
// A decorator over any DiskManager that declares a given
// MaxConcurrentIo(), logs every operation (kind, page and thread) on
// arrival, counts operations per kind (arrived, landed, in flight, peak
// in flight) and per page (landed), copies each write's image when the
// write arrives, and runs scripts that hold or delay the operations they
// match before they reach the inner device:
//   Hold       — until the script is opened;
//   HoldUntil  — until a condition on the script's and the device's
//                counts holds (InGroupsOf, AfterKth), or the script is
//                opened;
//   Delay      — sleep a fixed time, outside the device's latch.
// A matching operation runs every script it matches, in installation
// order. Failures are not scripted here: stack a FaultInjectingDiskManager
// under the device and use its page rules (FailPage, max_fires, Heal).
//
// Deadlines: every hold and every AwaitHeld gives up after kDeadline. A
// hold that does is counted in timeouts() and ends its script, so the
// operations it holds go on; an AwaitHeld that does is counted and
// returns false. A device destroyed with a timeout on its count fails the
// running test, so a regression that never releases a hold (or a test
// that forgets an Open) fails within the deadline instead of hanging.
//
// Thread safety: every member may be called from any thread.

#ifndef LRUK_TESTS_SCRIPTED_DISK_H_
#define LRUK_TESTS_SCRIPTED_DISK_H_

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "storage/disk_manager.h"

namespace lruk {

class ScriptedDisk final : public DiskManager {
 public:
  using Kind = PageIo::Kind;
  using ScriptId = size_t;

  static constexpr std::chrono::seconds kDeadline{10};

  // One operation, as it arrived.
  struct Op {
    Kind kind = Kind::kRead;
    PageId page = kInvalidPageId;
    std::thread::id thread;

    bool operator==(const Op&) const = default;
  };

  // The device's counts of one kind of operation.
  struct Counts {
    uint64_t arrived = 0;
    uint64_t landed = 0;     // Returned OK from the inner device.
    uint64_t in_flight = 0;  // Arrived and not yet returned.
    uint64_t peak = 0;       // The most in flight at once.
  };

  // The operations a script or an AwaitHeld applies to: those of `kind`
  // (either kind if unset) on pages [first, last].
  struct Match {
    std::optional<Kind> kind;
    PageId first = 0;
    PageId last = kInvalidPageId;

    bool operator()(Kind k, PageId p) const {
      return (!kind.has_value() || *kind == k) && first <= p && p <= last;
    }
  };
  static Match Any() { return {}; }
  static Match Reads() { return {Kind::kRead}; }
  static Match Reads(PageId p) { return {Kind::kRead, p, p}; }
  static Match Writes() { return {Kind::kWrite}; }
  static Match Writes(PageId p) { return {Kind::kWrite, p, p}; }
  static Match Pages(PageId first, PageId last) {
    return {std::nullopt, first, last};
  }

  // What a HoldUntil condition sees, under the device's latch: the held
  // operation is the script's k-th match (from 1), the script has matched
  // `matched` operations so far, and `reads` and `writes` have arrived at
  // the device since the script was installed.
  struct Scene {
    uint64_t k = 0;
    uint64_t matched = 0;
    uint64_t reads = 0;
    uint64_t writes = 0;
  };
  using Condition = std::function<bool(const Scene&)>;

  // The script's matches meet in groups of `n`, in arrival order: each
  // waits until its group is complete, so a group runs all at once, on
  // as many threads.
  static Condition InGroupsOf(uint64_t n) {
    return [n](const Scene& s) { return s.matched >= (s.k + n - 1) / n * n; };
  }
  // The k-th match waits until the k-th operation of `kind` since the
  // script was installed has arrived.
  static Condition AfterKth(Kind kind) {
    return [kind](const Scene& s) {
      return (kind == Kind::kRead ? s.reads : s.writes) >= s.k;
    };
  }

  // Called on each operation's thread when it arrives, after it is logged
  // and counted, with the device's counts. It runs under the device's
  // latch, so hooks run one at a time and see the counts as of their
  // operation's arrival; it must not call the device.
  using Hook =
      std::function<void(const Op&, const Counts& reads, const Counts& writes)>;

  // `inner` must outlive the device.
  explicit ScriptedDisk(DiskManager* inner,
                        size_t max_concurrent_io = kMaxIoInFlight)
      : inner_(inner), max_concurrent_io_(max_concurrent_io) {}

  ~ScriptedDisk() override {
    if (timeouts_ > 0) {
      ADD_FAILURE() << timeouts_ << " hold(s) or AwaitHeld call(s) ran into "
                    << "the " << kDeadline.count() << " s deadline";
    }
  }

  ScriptId Hold(Match match) { return Install(match, {}, std::nullopt); }
  ScriptId HoldUntil(Match match, Condition until) {
    return Install(match, std::move(until), std::nullopt);
  }
  ScriptId Delay(Match match, std::chrono::microseconds delay) {
    return Install(match, {}, delay);
  }

  // Ends a script: the operations it holds go on, and it matches no more.
  void Open(ScriptId id) {
    std::lock_guard<std::mutex> guard(mutex_);
    scripts_.at(id).ended = true;
    cv_.notify_all();
  }
  void OpenAll() {
    std::lock_guard<std::mutex> guard(mutex_);
    for (Script& script : scripts_) script.ended = true;
    cv_.notify_all();
  }
  uint64_t matched(ScriptId id) const {
    std::lock_guard<std::mutex> guard(mutex_);
    return scripts_.at(id).matched;
  }

  // Waits until `n` operations that `match` matches are held at once.
  bool AwaitHeld(Match match, size_t n = 1) {
    std::unique_lock<std::mutex> lock(mutex_);
    auto enough = [&] {
      return static_cast<size_t>(std::count_if(
                 held_.begin(), held_.end(),
                 [&](const Op& op) { return match(op.kind, op.page); })) >= n;
    };
    if (cv_.wait_for(lock, kDeadline, enough)) return true;
    ++timeouts_;
    return false;
  }

  void OnArrival(Hook hook) {
    std::lock_guard<std::mutex> guard(mutex_);
    hook_ = std::move(hook);
  }

  // The log, in arrival order; TakeOps also clears it.
  std::vector<Op> ops() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return ops_;
  }
  std::vector<Op> TakeOps() {
    std::lock_guard<std::mutex> guard(mutex_);
    return std::exchange(ops_, {});
  }
  Counts counts(Kind kind) const {
    std::lock_guard<std::mutex> guard(mutex_);
    return counts_[Index(kind)];
  }
  // Reads (writes) of `p` that returned OK from the inner device.
  uint64_t ReadsOf(PageId p) const { return LandedOf(Kind::kRead, p); }
  uint64_t WritesOf(PageId p) const { return LandedOf(Kind::kWrite, p); }
  uint64_t timeouts() const {
    std::lock_guard<std::mutex> guard(mutex_);
    return timeouts_;
  }

  size_t MaxConcurrentIo() const override { return max_concurrent_io_; }
  Status ReadPage(PageId p, char* out) override {
    return Serve(Kind::kRead, p, [&] { return inner_->ReadPage(p, out); });
  }
  Status WritePage(PageId p, const char* data) override {
    // Copied on arrival, as a device that has taken the data would: a
    // change made while the write is held does not reach it.
    std::vector<char> image(data, data + kPageSize);
    return Serve(Kind::kWrite, p,
                 [&] { return inner_->WritePage(p, image.data()); });
  }
  Result<PageId> AllocatePage() override { return inner_->AllocatePage(); }
  Status DeallocatePage(PageId p) override {
    return inner_->DeallocatePage(p);
  }
  uint64_t NumAllocatedPages() const override {
    return inner_->NumAllocatedPages();
  }
  IoStats stats() const override { return inner_->stats(); }
  void ResetStats() override { inner_->ResetStats(); }

 private:
  struct Script {
    Match match;
    Condition until;  // Empty: hold until opened.
    std::optional<std::chrono::microseconds> delay;  // Set: a Delay.
    uint64_t reads_before = 0;  // The device's arrivals at installation.
    uint64_t writes_before = 0;
    uint64_t matched = 0;
    bool ended = false;
  };

  static size_t Index(Kind kind) { return kind == Kind::kRead ? 0 : 1; }

  ScriptId Install(Match match, Condition until,
                   std::optional<std::chrono::microseconds> delay) {
    std::lock_guard<std::mutex> guard(mutex_);
    Script& script = scripts_.emplace_back();
    script.match = match;
    script.until = std::move(until);
    script.delay = delay;
    script.reads_before = counts_[0].arrived;
    script.writes_before = counts_[1].arrived;
    return scripts_.size() - 1;
  }

  uint64_t LandedOf(Kind kind, PageId p) const {
    std::lock_guard<std::mutex> guard(mutex_);
    auto it = landed_[Index(kind)].find(p);
    return it == landed_[Index(kind)].end() ? 0 : it->second;
  }

  bool ReleasedLocked(ScriptId id, uint64_t k) const {
    const Script& s = scripts_[id];
    if (s.ended) return true;
    if (!s.until) return false;
    return s.until(Scene{k, s.matched, counts_[0].arrived - s.reads_before,
                         counts_[1].arrived - s.writes_before});
  }

  // Holds `op`, the k-th match of script `id`, until the script releases
  // it or the deadline passes.
  void HoldLocked(std::unique_lock<std::mutex>& lock, ScriptId id, uint64_t k,
                  const Op& op) {
    if (ReleasedLocked(id, k)) return;
    held_.push_back(op);
    cv_.notify_all();  // Wakes AwaitHeld.
    if (!cv_.wait_for(lock, kDeadline, [&] { return ReleasedLocked(id, k); })) {
      ++timeouts_;
      scripts_[id].ended = true;
      cv_.notify_all();
    }
    held_.erase(std::find(held_.begin(), held_.end(), op));
  }

  template <typename Io>
  Status Serve(Kind kind, PageId p, Io io) {
    std::chrono::microseconds delay{0};
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const Op op{kind, p, std::this_thread::get_id()};
      ops_.push_back(op);
      Counts& mine = counts_[Index(kind)];
      ++mine.arrived;
      mine.peak = std::max(mine.peak, ++mine.in_flight);
      if (hook_) hook_(op, counts_[0], counts_[1]);
      std::vector<std::pair<ScriptId, uint64_t>> holds;  // Script, k.
      for (ScriptId id = 0; id < scripts_.size(); ++id) {
        Script& script = scripts_[id];
        if (script.ended || !script.match(kind, p)) continue;
        const uint64_t k = ++script.matched;
        if (script.delay.has_value()) {
          delay += *script.delay;
        } else {
          holds.emplace_back(id, k);
        }
      }
      cv_.notify_all();  // The arrival may release other holds.
      for (const auto& [id, k] : holds) HoldLocked(lock, id, k, op);
    }
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
    Status status = io();
    std::lock_guard<std::mutex> guard(mutex_);
    --counts_[Index(kind)].in_flight;
    if (status.ok()) {
      ++counts_[Index(kind)].landed;
      ++landed_[Index(kind)][p];
    }
    return status;
  }

  DiskManager* inner_;
  const size_t max_concurrent_io_;
  mutable std::mutex mutex_;  // Guards the members below.
  std::condition_variable cv_;
  Hook hook_;
  std::vector<Script> scripts_;  // Indexed by ScriptId.
  std::vector<Op> ops_;
  std::vector<Op> held_;
  std::array<Counts, 2> counts_;  // Reads, writes.
  std::array<std::unordered_map<PageId, uint64_t>, 2> landed_;
  uint64_t timeouts_ = 0;
};

}  // namespace lruk

#endif  // LRUK_TESTS_SCRIPTED_DISK_H_
