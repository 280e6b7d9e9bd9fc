// The buffer-pool surface shared by the single-latch BufferPool and the
// ShardedBufferPool: substrates (B+tree, heap file), PageGuard, examples
// and benches program against this interface so either pool can be swapped
// in underneath them.

#ifndef LRUK_BUFFERPOOL_POOL_INTERFACE_H_
#define LRUK_BUFFERPOOL_POOL_INTERFACE_H_

#include <cstdint>
#include <iterator>
#include <span>
#include <string>

#include "bufferpool/page.h"
#include "core/types.h"
#include "util/status.h"

namespace lruk {

// Counting semantics: every FetchPage resolves to exactly one hit or one
// miss. A fetch of a resident page is a hit even when the page is already
// pinned by this or another caller — a re-pin saved an I/O just as surely
// as a first pin did, so hits measure "fetches that did not touch disk".
// NewPage, FlushPage and DeletePage count neither hits nor misses.
// `evictions` counts policy-chosen victims only (DeletePage is not an
// eviction, and an eviction whose dirty write-back failed — and was rolled
// back — is not counted); `dirty_writebacks` counts eviction-time
// write-backs (explicit FlushPage/FlushAll writes are not included). Both
// count each victim of an allocation's batch (an inline pool's NewPage
// may evict up to MaxConcurrentIo() victims at once, keeping the extra
// frames free), so `evictions` can run ahead of the admissions that used
// the frames.
// `read_failures`/`write_failures` count pool-issued disk ops that failed
// after exhausting any configured retries; `retries` counts the re-issues
// spent under BufferPoolOptions::io_max_attempts (0 when retries are off).
//
// Read-tracker counters (DESIGN.md §8): a fetch that
// finds its page's read already in flight counts one miss AND one
// `coalesced_read` (it waited on the existing read instead of issuing its
// own). `prefetch_issued`, `prefetch_used` and `background_cleans` are
// always 0: the scan prefetcher and the background flusher that counted
// them are deleted, and they stay only because bench/e2e still reads
// them.
//
// Write-behind counters (zero unless `io_workers > 0` — a worker-mode
// pool always writes dirty victims behind, through its write-behind
// queue; see DESIGN.md §8 "The dispatcher"): in worker mode,
// `dirty_writebacks` narrows to victim writes the evicting thread
// performed synchronously (the foreground-stall metric: a full queue),
// while `writebehind_writes` counts victim writes completed off the miss
// path from a pinned copy. `writebehind_readmits` counts failed
// write-behind writes whose page was re-admitted dirty (exact rollback
// via ReplacementPolicy::Restore — the eviction stays counted).
// `io_drops_flush` counts this pool's write-behind posts refused by a
// full queue, each written on the evicting thread instead (one
// `dirty_writebacks` once it succeeds); with a shared queue it is
// counted at the submitting pool, so shard sums stay exact.
//
// Latch-free path counters (every pool's hits and unpins try it first —
// see DESIGN.md §9 "Page table & pin protocol"): `optimistic_hits` counts
// hits served entirely without the pool latch; they are also counted in
// `hits`. `optimistic_fallbacks` counts every latch-free attempt that
// ended up on the latched path, and
// splits exactly into three attributed causes: `fallback_probe_miss`
// (the probe found a clean empty bucket — the page is simply absent, so
// single-threaded this equals the miss count plus any unpin probes of
// non-resident pages), `fallback_version_conflict` (an odd or changed
// bucket version, including post-pin validation failures — a concurrent
// mutation raced the probe), and `fallback_resize` (the displacement
// bound was exhausted without finding a terminator — the condition a
// growable table would resolve by resizing; the fixed-size table falls
// back to the exact latched probe instead). `pin_cas_retries` counts
// failed compare-exchange iterations in latch-free unpins — a contention
// proxy. `latch_acquires` counts acquisitions of the pool mutex (per
// shard, summed); it is a proxy, not a lock census: condition-variable
// re-acquisitions inside waits are not counted. A warm hit+unpin pair
// performs zero latch acquisitions.
//
// `access_drops` counts buffered access records dropped at drain time
// because their page had already been evicted (the record stalled behind
// a lock-free publish gap, or its pin+publish+unpin completed without the
// latch). Each drop is one policy reference
// that was observed but never applied: bounded staleness, surfaced so
// accounting stays exact.
//
// `correlated_refs` counts hits that were correlated re-fixes: the
// fetching thread's previous fix on the same pool (FetchPage, NewPage or
// AdmitNewPage; across all shards of a sharded pool) was the same page.
// Such a hit pins and dirties as usual and is counted in `hits`, but it
// is one reference with the fix before it (the paper's §2.1.1), so it
// never reaches the policy. Together: policy clock + access_drops +
// correlated_refs == hits + misses + admits.
//
// The counters are listed once, in LRUK_POOL_COUNTERS, as X(name). The
// fields below, the shard merge (operator+=), equality, kPoolCounters and
// ForEachCounter, the text form, BufferPool's relaxed-atomic mirror and
// the benches' JSON writer (bench/bench_common.h) are all generated from
// that list, so adding or removing a counter is one line there.
#define LRUK_POOL_COUNTERS(X)  \
  X(hits)                      \
  X(misses)                    \
  X(evictions)                 \
  X(dirty_writebacks)          \
  X(read_failures)             \
  X(write_failures)            \
  X(retries)                   \
  X(coalesced_reads)           \
  X(prefetch_issued)           \
  X(prefetch_used)             \
  X(background_cleans)         \
  X(writebehind_writes)        \
  X(writebehind_readmits)      \
  X(io_drops_flush)            \
  X(optimistic_hits)           \
  X(optimistic_fallbacks)      \
  X(fallback_probe_miss)       \
  X(fallback_version_conflict) \
  X(fallback_resize)           \
  X(access_drops)              \
  X(correlated_refs)           \
  X(pin_cas_retries)           \
  X(latch_acquires)

struct BufferPoolStats {
#define LRUK_POOL_COUNTER_FIELD(name) uint64_t name = 0;
  LRUK_POOL_COUNTERS(LRUK_POOL_COUNTER_FIELD)
#undef LRUK_POOL_COUNTER_FIELD

  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  // Shard merge: adds every counter.
  BufferPoolStats& operator+=(const BufferPoolStats& other) {
#define LRUK_POOL_COUNTER_ADD(name) name += other.name;
    LRUK_POOL_COUNTERS(LRUK_POOL_COUNTER_ADD)
#undef LRUK_POOL_COUNTER_ADD
    return *this;
  }

  bool operator==(const BufferPoolStats&) const = default;
};

// One entry per counter, in list order: its name and its field.
struct PoolCounter {
  const char* name;
  uint64_t BufferPoolStats::*field;
};
inline constexpr PoolCounter kPoolCounters[] = {
#define LRUK_POOL_COUNTER_ENTRY(name) {#name, &BufferPoolStats::name},
    LRUK_POOL_COUNTERS(LRUK_POOL_COUNTER_ENTRY)
#undef LRUK_POOL_COUNTER_ENTRY
};

// Every field is a listed counter. A field declared outside the list would
// be missed by the merge, the atomic mirror and every dump, so it fails to
// compile here instead.
static_assert(sizeof(BufferPoolStats) ==
                  std::size(kPoolCounters) * sizeof(uint64_t),
              "declare BufferPoolStats counters in LRUK_POOL_COUNTERS");

// Calls fn(name, value) for every counter, in list order.
template <typename Fn>
void ForEachCounter(const BufferPoolStats& stats, Fn&& fn) {
  for (const PoolCounter& counter : kPoolCounters) {
    fn(counter.name, stats.*counter.field);
  }
}

// The text form: every nonzero counter as name=value, space-separated, in
// list order.
inline std::string FormatCounters(const BufferPoolStats& stats) {
  std::string out;
  ForEachCounter(stats, [&](const char* name, uint64_t value) {
    if (value == 0) return;
    if (!out.empty()) out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  });
  return out;
}

// Abstract page-caching pool. Implementations pin pages on fetch; callers
// balance every FetchPage/NewPage with UnpinPage (or hold a PageGuard).
class PoolInterface {
 public:
  PoolInterface() = default;
  virtual ~PoolInterface() = default;
  LRUK_DISALLOW_COPY_AND_MOVE(PoolInterface);

  // Returns the page pinned, reading it from disk on a miss. `type`
  // reaches the replacement policy (and kWrite marks the page dirty).
  virtual Result<Page*> FetchPage(PageId p,
                                  AccessType type = AccessType::kRead) = 0;

  // Fixes a run of distinct pages: on success out[i] is pages[i], pinned
  // (`out` has one entry per page), as after consecutive FetchPage calls.
  // On failure no page of the run stays pinned, and the first failure in
  // page order is returned. BufferPool reads the run's misses as one
  // device batch; this default fixes the pages one FetchPage at a time.
  virtual Status FetchPages(std::span<const PageId> pages,
                            std::span<Page*> out,
                            AccessType type = AccessType::kRead) {
    LRUK_ASSERT(out.size() == pages.size(), "one out entry per page");
    for (size_t i = 0; i < pages.size(); ++i) {
      auto page = FetchPage(pages[i], type);
      if (!page.ok()) {
        while (i-- > 0) (void)UnpinPage(pages[i], /*dirty=*/false);
        return page.status();
      }
      out[i] = *page;
    }
    return Status::Ok();
  }

  // Allocates a new disk page, returns it pinned, zeroed, and dirty.
  virtual Result<Page*> NewPage() = 0;

  // Drops one pin; `dirty` accumulates into the page's dirty flag. The
  // page becomes evictable when its pin count reaches zero.
  virtual Status UnpinPage(PageId p, bool dirty) = 0;

  // Writes the page image to disk now if it is dirty (page stays resident
  // and keeps its pins) and clears the dirty flag; a clean page costs no
  // write. A holder's modifications count once they are reported dirty:
  // by a kWrite fetch, NewPage, or an UnpinPage(p, true). One reported
  // while the write is in flight leaves the page dirty.
  virtual Status FlushPage(PageId p) = 0;

  // Flushes every dirty resident page. On write failure, attempts every
  // remaining dirty page anyway and returns the first error; pages whose
  // write failed keep their dirty flag, so a later FlushAll can complete
  // the job once the fault clears.
  virtual Status FlushAll() = 0;

  // Removes the page from the pool and deallocates it on disk. Fails if
  // pinned.
  virtual Status DeletePage(PageId p) = 0;

  // Total frames across the whole pool.
  virtual size_t capacity() const = 0;

  // Currently resident pages across the whole pool.
  virtual size_t ResidentCount() const = 0;

  virtual bool IsResident(PageId p) const = 0;

  // Aggregate counters (summed across shards for a sharded pool).
  // Drains pending access-buffer records first so the returned counters
  // reflect every completed operation — which takes the pool latch.
  virtual BufferPoolStats stats() const = 0;

  // Lock-free counter snapshot: reads the atomic counters without taking
  // any latch or draining buffered records, so observation never blocks
  // the hit path. Counters are individually exact but the snapshot is not
  // an atomic cut across them under concurrency.
  virtual BufferPoolStats StatsSnapshot() const { return stats(); }

  virtual void ResetStats() = 0;
};

}  // namespace lruk

#endif  // LRUK_BUFFERPOOL_POOL_INTERFACE_H_
