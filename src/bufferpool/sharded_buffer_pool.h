// A sharded buffer pool: frames are partitioned across N single-latch
// BufferPool shards (N a power of two), with pages routed to shards by a
// hash of their PageId. Each shard owns its own latch, page table,
// ReplacementPolicy instance and BufferPoolStats, so operations on pages
// in different shards never contend — the multi-core scaling answer the
// single coarse latch cannot give (see DESIGN.md "Concurrency & sharding").
//
// Semantics, relative to the single-latch BufferPool:
//
//  * Per-shard, the replacement behaviour is exactly the wrapped policy's:
//    each shard runs an unmodified BufferPool, so LRU-K's victim ordering
//    (or 2Q's, ARC's, ...) holds among the pages of that shard. There is
//    NO global eviction order — the globally coldest page survives if its
//    shard happens to be under less pressure than another shard's merely
//    cool page. With 1 shard the pool is behaviourally identical to
//    BufferPool (the differential test asserts byte-for-byte equal stats).
//  * Capacity is partitioned, not pooled: a fetch fails with
//    RESOURCE_EXHAUSTED when every frame of the *owning shard* is pinned,
//    even if other shards have free frames. Frames are distributed as
//    evenly as the remainder allows (the first capacity % N shards get one
//    extra frame).
//  * Page ids are allocated by a single pool-level allocator (the disk
//    manager, serialized by one allocation latch), so NewPage ids are
//    unique across shards; the new page then lives in whichever shard its
//    id hashes to.
//  * Statistics: stats() aggregates across shards; ShardStats() exposes
//    the per-shard breakdown for observability. Hit/miss counting
//    semantics are BufferPoolStats's (re-pins count as hits).
//  * Correlated re-fixes (see buffer_pool.h) are judged pool-wide: all
//    shards share one last-fix register key, so a thread's fix of q on
//    one shard separates its two fixes of p on another.
//  * The DiskManager must be thread-safe: shards issue reads and
//    write-backs concurrently. SimDiskManager and FileDiskManager are
//    (see storage/disk_manager.h).
//  * DeletePage frees the disk id for reuse, so a thread that fetches a
//    page id concurrently with (or after) another thread's delete may get
//    NotFound, a freshly reallocated page whose contents it does not
//    recognize, or — if the reallocation is still mid-admission — an I/O
//    error. The pool's internal invariants hold in every interleaving;
//    coordinating "who may still use this id" is the caller's job, exactly
//    as it is for the single-latch pool.
//
// Policy construction: the pool builds one policy per shard through a
// ShardPolicyFactory callback, so any policy in the catalog (LRU-K, 2Q,
// ARC, ...) — or a custom one — can be supplied without this header
// knowing its type. MakeShardPolicyFactory adapts a PolicyConfig.

#ifndef LRUK_BUFFERPOOL_SHARDED_BUFFER_POOL_H_
#define LRUK_BUFFERPOOL_SHARDED_BUFFER_POOL_H_

#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "bufferpool/buffer_pool.h"
#include "bufferpool/pool_interface.h"
#include "core/policy_factory.h"
#include "storage/disk_manager.h"

namespace lruk {

class ShardedBufferPool final : public PoolInterface {
 public:
  // Partitions `capacity` frames across `num_shards` shards (a power of
  // two, <= capacity). `disk` must outlive the pool and be thread-safe.
  // `factory` is invoked once per shard as factory(shard_index,
  // shard_capacity) and must return a fresh policy each time.
  // `shard_options` is applied to every shard. Every shard's warm hits and
  // unpins are latch-free, each shard draining its own AccessBuffer under
  // its own latch.
  ShardedBufferPool(size_t capacity, size_t num_shards, DiskManager* disk,
                    ShardPolicyFactory factory,
                    BufferPoolOptions shard_options = {});

  Result<Page*> FetchPage(PageId p,
                          AccessType type = AccessType::kRead) override;
  Result<Page*> NewPage() override;
  Status UnpinPage(PageId p, bool dirty) override;
  Status FlushPage(PageId p) override;
  Status FlushAll() override;
  Status DeletePage(PageId p) override;

  size_t capacity() const override { return capacity_; }
  size_t ResidentCount() const override;
  bool IsResident(PageId p) const override;

  // Aggregate counters: the sum of every shard's stats.
  BufferPoolStats stats() const override;
  // Lock-free aggregate snapshot: sums every shard's atomic counters
  // without taking any shard latch or draining buffered records.
  BufferPoolStats StatsSnapshot() const override;
  void ResetStats() override;

  // --- Sharding observability ---

  size_t shard_count() const { return shards_.size(); }
  // Which shard owns `p` (a pure function of the page id).
  size_t ShardOf(PageId p) const { return MixPageId(p) & shard_mask_; }
  // Direct access to one shard (its capacity, policy, stats, ...).
  BufferPool& shard(size_t i) { return *shards_[i]; }
  const BufferPool& shard(size_t i) const { return *shards_[i]; }
  // Per-shard counter breakdown, indexed by shard.
  std::vector<BufferPoolStats> ShardStats() const;
  // Meta-policy counters merged across shards (expert-wise sums; shards
  // adapt independently, so active_expert is shard 0's choice — use
  // shard(i).MetaStats() for the per-shard view).
  MetaPolicyStats MetaStats() const {
    MetaPolicyStats total;
    for (const auto& shard : shards_) total += shard->MetaStats();
    return total;
  }
  // AccessBuffer counters summed across shards.
  AccessBufferStats access_buffer_stats() const {
    AccessBufferStats total;
    for (const auto& shard : shards_) total += shard->access_buffer_stats();
    return total;
  }

  DiskManager& disk() { return *disk_; }

  // --- In-flight I/O (DESIGN.md §8 "The dispatcher") ---

  // The write-behind queue every shard posts victim writes to (one set of
  // writers for the whole pool in worker mode); null for an inline pool.
  IoDispatcher* io_dispatcher() { return io_.get(); }
  // Blocks until every shard's in-flight miss reads and victim writes have
  // completed.
  void Quiesce();

 private:
  // SplitMix64 finalizer: page ids are typically dense small integers, so
  // route through a strong mix to spread them uniformly across shards
  // (p & mask would put entire hot ranges in one shard).
  static uint64_t MixPageId(PageId p) {
    uint64_t z = p + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  size_t capacity_;
  size_t shard_mask_;
  DiskManager* disk_;
  // Serializes page-id allocation and deletion at the pool level. Lock
  // order is alloc_latch_ -> shard latch -> disk latch; nothing acquires
  // them in the reverse direction.
  std::mutex alloc_latch_;
  // Ids handed out by the allocator whose shard admission has not settled
  // yet (guarded by alloc_latch_). DeletePage refuses these: a stale
  // delete of a reused id must not free the disk page mid-admission.
  std::unordered_set<PageId> pending_admits_;
  // One dispatcher shared by all shards in worker mode, else null
  // (declared before shards_ so the shards — whose destructors wait out
  // the victim writes they posted to it — are torn down while it is
  // still alive).
  std::unique_ptr<IoDispatcher> io_;
  std::vector<std::unique_ptr<BufferPool>> shards_;
};

}  // namespace lruk

#endif  // LRUK_BUFFERPOOL_SHARDED_BUFFER_POOL_H_
