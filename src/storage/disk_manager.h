// Disk abstraction under the buffer pool. Two implementations:
//   SimDiskManager  — in-memory page store with a service-time cost model,
//                     used by simulations and tests.
//   FileDiskManager — a real file on disk, used by the examples.
//
// Thread safety: WritePages, which FlushPage/FlushAll write through, runs
// up to MaxConcurrentWrites() WritePage calls at once (kMaxWritesInFlight
// unless a manager returns less), so WritePage must be thread-safe even
// under a pool used by one thread, unless the manager returns 1. A pool
// used by several threads calls every operation concurrently: flushes
// write with the pool latch released, the async I/O dispatcher's workers
// read and write, and the shards of a ShardedBufferPool share one
// manager. SimDiskManager and FileDiskManager serialize every operation
// on one internal latch, so overlapping their writes gains nothing: they
// return 1.

#ifndef LRUK_STORAGE_DISK_MANAGER_H_
#define LRUK_STORAGE_DISK_MANAGER_H_

#include <cstddef>
#include <cstdint>
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

// One entry of a WritePages batch: the page, its image (kPageSize bytes,
// stable until WritePages returns) and, on return, the write's outcome.
struct PageWrite {
  PageId page = kInvalidPageId;
  const char* data = nullptr;
  Status status;
};

class DiskManager {
 public:
  // The default MaxConcurrentWrites: WritePages keeps at most this many
  // WritePage calls in flight.
  static constexpr size_t kMaxWritesInFlight = 16;

  DiskManager() = default;
  virtual ~DiskManager() = default;
  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  // Reads page `p` into `out` (exactly kPageSize bytes).
  virtual Status ReadPage(PageId p, char* out) = 0;

  // Writes kPageSize bytes from `data` to page `p`. WritePages calls it
  // from several threads at once unless MaxConcurrentWrites() is 1, so it
  // must be thread-safe (see the note at the top of this file).
  virtual Status WritePage(PageId p, const char* data) = 0;

  // How many WritePage calls WritePages may keep in flight at once. The
  // default, kMaxWritesInFlight, suits a device that serves writes
  // concurrently, so that overlapping them saves wall time. A manager
  // that serializes its writes anyway, whose WritePage is not
  // thread-safe, or that needs a batch written in batch order returns 1.
  virtual size_t MaxConcurrentWrites() const { return kMaxWritesInFlight; }

  // Writes every entry of `writes` and sets each entry's status; returns
  // when all of them have finished. With MaxConcurrentWrites() > 1 (the
  // default), up to that many WritePage calls run at once, on short-lived
  // threads, continuously across the batch, so they run concurrently and
  // in no fixed order. A batch of one, or a manager that returns 1, is
  // written on the caller's thread in batch order.
  void WritePages(std::span<PageWrite> writes);

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
};

}  // namespace lruk

#endif  // LRUK_STORAGE_DISK_MANAGER_H_
