// The buffer-pool surface shared by the single-latch BufferPool and the
// ShardedBufferPool: substrates (B+tree, heap file), PageGuard, examples
// and benches program against this interface so either pool can be swapped
// in underneath them.

#ifndef LRUK_BUFFERPOOL_POOL_INTERFACE_H_
#define LRUK_BUFFERPOOL_POOL_INTERFACE_H_

#include <cstdint>

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
// write-backs (explicit FlushPage/FlushAll writes are not included).
// `read_failures`/`write_failures` count pool-issued disk ops that failed
// after exhausting any configured retries; `retries` counts the re-issues
// spent under BufferPoolOptions::io_max_attempts (0 when retries are off).
//
// Dispatcher counters (all zero unless BufferPoolOptions::io_dispatcher is
// on — see DESIGN.md "Async I/O dispatcher"): a fetch that finds its page's
// read already in flight counts one miss AND one `coalesced_read` (it
// waited on the existing read instead of issuing its own, so physical
// reads == misses - coalesced_reads - prefetch hits). `prefetch_issued`
// counts readahead requests registered; `prefetch_used` counts hits that
// landed on a prefetched frame before any demand reference touched it;
// `prefetch_dropped` counts prefetches abandoned (full dispatcher queue,
// no evictable frame, or a failed read — never an error surfaced to
// callers). `background_cleans` is always 0: no pool path counts it, and
// it stays only because bench/e2e still reads it.
//
// Write-behind counters (zero unless `io_workers > 0` — a worker-mode
// dispatcher always writes dirty victims behind; see DESIGN.md "Priority
// lanes and write-behind eviction"): in worker mode, `dirty_writebacks`
// narrows to victim writes the evicting thread performed synchronously
// (the foreground-stall metric: a full Flush lane), while
// `writebehind_writes` counts victim writes completed off the miss path
// from a pinned copy. `writebehind_readmits` counts failed write-behind
// writes whose page was re-admitted dirty (exact rollback via
// ReplacementPolicy::Restore — the eviction stays counted).
// `io_drops_flush`/`io_drops_prefetch` count this pool's TryPost
// submissions refused by a full dispatcher lane, per request class (on
// the Flush lane, write-behind fallbacks — each also one
// `dirty_writebacks` once it succeeds; on the Prefetch lane, a queue-full
// subset of `prefetch_dropped`) — with a shared dispatcher these are
// counted at the submitting pool, so shard sums stay exact.
//
// Optimistic-path counters (all zero unless BufferPoolOptions::
// optimistic_hits is on — see DESIGN.md "Optimistic page table & pin
// protocol"): `optimistic_hits` counts hits served entirely without the
// pool latch; they are also counted in `hits`. `optimistic_fallbacks`
// counts every optimistic attempt that ended up on the latched path, and
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
// re-acquisitions inside waits are not counted. With optimistic_hits on,
// a warm hit+unpin pair performs zero latch acquisitions.
//
// `access_drops` counts buffered access records dropped at drain time
// because their page had already been evicted (the record stalled behind
// a lock-free publish gap, or — with optimistic_hits — its pin+publish+
// unpin completed without the latch). Each drop is one policy reference
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
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t dirty_writebacks = 0;
  uint64_t read_failures = 0;
  uint64_t write_failures = 0;
  uint64_t retries = 0;
  uint64_t coalesced_reads = 0;
  uint64_t prefetch_issued = 0;
  uint64_t prefetch_used = 0;
  uint64_t prefetch_dropped = 0;
  uint64_t background_cleans = 0;
  uint64_t writebehind_writes = 0;
  uint64_t writebehind_readmits = 0;
  uint64_t io_drops_flush = 0;
  uint64_t io_drops_prefetch = 0;
  uint64_t optimistic_hits = 0;
  uint64_t optimistic_fallbacks = 0;
  uint64_t fallback_probe_miss = 0;
  uint64_t fallback_version_conflict = 0;
  uint64_t fallback_resize = 0;
  uint64_t access_drops = 0;
  uint64_t correlated_refs = 0;
  uint64_t pin_cas_retries = 0;
  uint64_t latch_acquires = 0;

  double HitRatio() const {
    uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  BufferPoolStats& operator+=(const BufferPoolStats& other) {
    hits += other.hits;
    misses += other.misses;
    evictions += other.evictions;
    dirty_writebacks += other.dirty_writebacks;
    read_failures += other.read_failures;
    write_failures += other.write_failures;
    retries += other.retries;
    coalesced_reads += other.coalesced_reads;
    prefetch_issued += other.prefetch_issued;
    prefetch_used += other.prefetch_used;
    prefetch_dropped += other.prefetch_dropped;
    background_cleans += other.background_cleans;
    writebehind_writes += other.writebehind_writes;
    writebehind_readmits += other.writebehind_readmits;
    io_drops_flush += other.io_drops_flush;
    io_drops_prefetch += other.io_drops_prefetch;
    optimistic_hits += other.optimistic_hits;
    optimistic_fallbacks += other.optimistic_fallbacks;
    fallback_probe_miss += other.fallback_probe_miss;
    fallback_version_conflict += other.fallback_version_conflict;
    fallback_resize += other.fallback_resize;
    access_drops += other.access_drops;
    correlated_refs += other.correlated_refs;
    pin_cas_retries += other.pin_cas_retries;
    latch_acquires += other.latch_acquires;
    return *this;
  }
};

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
