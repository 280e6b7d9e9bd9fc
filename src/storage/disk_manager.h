// Disk abstraction under the buffer pool. Two implementations:
//   SimDiskManager  — in-memory page store with a service-time cost model,
//                     used by simulations and tests.
//   FileDiskManager — a real file on disk, used by the examples.
//
// Thread safety: RunBatch, which FlushPage/FlushAll write through and
// which carries an inline pool's dirty miss (the victim's write-back and
// the miss's read) and an inline pool's allocation (the write-backs of up
// to MaxConcurrentIo() dirty victims), runs up to MaxConcurrentIo()
// ReadPage/WritePage calls
// at once (kMaxIoInFlight unless a manager returns less), on the caller's
// thread and the manager's persistent runner threads, so both must be
// thread-safe even under a pool used by one thread, unless the manager
// returns 1. A pool used by several threads calls every operation
// concurrently: misses read and flushes write with the pool latch
// released, a worker-mode pool's write-behind writers write (they never
// read), and the shards of a ShardedBufferPool share one manager.
// SimDiskManager and FileDiskManager serialize every operation on one
// internal latch, so overlapping their operations gains nothing: they
// return 1, and start no runner.

#ifndef LRUK_STORAGE_DISK_MANAGER_H_
#define LRUK_STORAGE_DISK_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "core/types.h"
#include "util/status.h"

namespace lruk {

// Fixed page size; Example 1.1 assumes "disk pages contain 4000 bytes of
// usable space", which a 4 KiB page with headers matches.
inline constexpr size_t kPageSize = 4096;

// Cumulative I/O accounting, including the simulated elapsed service time
// (reads/writes to a simulated disk cost `read/write_micros` each, giving
// benches an I/O-time axis in addition to hit ratios).
//
// Counting semantics: `reads`/`writes` count operations that *succeeded*;
// `read_failures`/`write_failures` count operations that returned an error
// (whether injected by a FaultInjectingDiskManager or organic, e.g. a read
// of an unallocated page). `retries` counts re-issued operations — a
// read/write of the same page immediately after a failed attempt of the
// same kind — as observed by managers that can detect them (the fault
// injector); plain managers leave it 0.
struct IoStats {
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t allocations = 0;
  uint64_t deallocations = 0;
  uint64_t read_failures = 0;
  uint64_t write_failures = 0;
  uint64_t retries = 0;
  double simulated_micros = 0.0;
};

// One entry of a RunBatch batch: a read of `page` into `data`, or a write
// of `data` to `page` (kPageSize bytes either way, stable until RunBatch
// returns; a write leaves them unchanged), and on return its outcome.
struct PageIo {
  enum class Kind : uint8_t { kRead, kWrite };
  Kind kind = Kind::kWrite;
  PageId page = kInvalidPageId;
  char* data = nullptr;
  Status status;
};

class DiskManager {
 public:
  // The default MaxConcurrentIo: RunBatch keeps at most this many
  // ReadPage/WritePage calls in flight.
  static constexpr size_t kMaxIoInFlight = 16;

  DiskManager();
  // Joins the manager's runner threads, if RunBatch started any. No batch
  // may still be running.
  virtual ~DiskManager();
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  // Reads page `p` into `out` (exactly kPageSize bytes). RunBatch calls
  // it and WritePage from several threads at once unless
  // MaxConcurrentIo() is 1, so both must be thread-safe (see the note at
  // the top of this file).
  virtual Status ReadPage(PageId p, char* out) = 0;

  // Writes kPageSize bytes from `data` to page `p`.
  virtual Status WritePage(PageId p, const char* data) = 0;

  // How many operations RunBatch may keep in flight at once, reads and
  // writes alike. The default, kMaxIoInFlight, suits a device that serves
  // operations concurrently, so that overlapping them saves wall time. A
  // manager that serializes its operations anyway, whose ReadPage or
  // WritePage is not thread-safe, or that needs a batch run in batch order
  // returns 1.
  virtual size_t MaxConcurrentIo() const { return kMaxIoInFlight; }

  // Runs every entry of `batch` and sets each entry's status; returns when
  // all of them have finished. A batch of one, or a manager that returns 1
  // from MaxConcurrentIo(), runs on the caller's thread in batch order.
  //
  // Otherwise up to MaxConcurrentIo() operations run at once, continuously
  // across the batch, so they run concurrently and in no fixed order: the
  // caller runs the last entry first and then takes entries from the back,
  // while the manager's runner threads take them from the front. So a
  // dirty miss's demand read (the last entry of its pair) runs on the
  // fetching thread, and its victim's write-back on a runner unless the
  // read is over before a runner takes it. A caller waits only for the
  // runners that took a share of its own batch and runs the shares nobody
  // took; if no runner is free (all busy, or none could be started), it
  // runs the whole batch alone, in batch order.
  //
  // The runners persist: each is started on demand, the first time a batch
  // offers a share no idle runner can take, by that batch's caller, whose
  // timer slack, scheduling policy and CPU affinity it inherits once.
  // There are never more than MaxConcurrentIo() - 1; they park on a
  // condition variable between batches (never spinning), each keeping its
  // stack resident, and the destructor joins them.
  //
  // Writes always run. A read that has not started when a write of its
  // batch fails is not issued and reports kAborted: a batch's reads are
  // wanted only if its writes land (a dirty miss reads its page for a
  // frame whose victim must reach disk first). So a manager that returns 1
  // never reads after a failed write of the batch, while on a concurrent
  // one the read may already be in flight.
  void RunBatch(std::span<PageIo> batch);

  // Allocates a fresh zeroed page and returns its id.
  virtual Result<PageId> AllocatePage() = 0;

  // Returns `p` to the allocator. Reading a deallocated page is an error.
  virtual Status DeallocatePage(PageId p) = 0;

  // Number of currently allocated pages.
  virtual uint64_t NumAllocatedPages() const = 0;

  // Virtual so wrapping managers (FaultInjectingDiskManager) can merge
  // their own accounting into the view; returns by value for that reason.
  // ResetStats() zeroes every IoStats field, including the failure/retry
  // counters.
  virtual IoStats stats() const { return stats_; }
  virtual void ResetStats() { stats_ = IoStats{}; }

 protected:
  IoStats stats_;

 private:
  class Runners;  // RunBatch's runner threads (disk_manager.cc).
  std::unique_ptr<Runners> runners_;
};

}  // namespace lruk

#endif  // LRUK_STORAGE_DISK_MANAGER_H_
