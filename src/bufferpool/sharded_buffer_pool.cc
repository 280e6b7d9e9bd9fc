#include "bufferpool/sharded_buffer_pool.h"

#include <utility>

namespace lruk {

namespace {
bool IsPowerOfTwo(size_t n) { return n != 0 && (n & (n - 1)) == 0; }
}  // namespace

ShardedBufferPool::ShardedBufferPool(size_t capacity, size_t num_shards,
                                     DiskManager* disk,
                                     ShardPolicyFactory factory,
                                     BufferPoolOptions shard_options)
    : capacity_(capacity), shard_mask_(num_shards - 1), disk_(disk) {
  LRUK_ASSERT(IsPowerOfTwo(num_shards),
              "shard count must be a power of two");
  LRUK_ASSERT(capacity_ >= num_shards,
              "sharded pool needs at least one frame per shard");
  LRUK_ASSERT(disk_ != nullptr, "sharded pool needs a disk manager");
  LRUK_ASSERT(factory != nullptr, "sharded pool needs a policy factory");

  // One dispatcher (one worker fleet, one bounded queue) serves every
  // shard; the shards receive it as a shared dispatcher instead of each
  // spinning up its own.
  io_ = std::make_unique<IoDispatcher>(shard_options.io_workers);
  if (shard_options.readahead) {
    readahead_ = std::make_unique<ReadaheadDetector>();
  }
  // The scan detector (if any) lives at the pool level: shard-local fetch
  // streams are hash-interleaved and would never show a stride run.
  BufferPoolOptions per_shard = shard_options;
  per_shard.readahead = false;

  // Distribute frames as evenly as possible: the first capacity % N
  // shards absorb the remainder.
  size_t base = capacity_ / num_shards;
  size_t remainder = capacity_ % num_shards;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    size_t shard_capacity = base + (i < remainder ? 1 : 0);
    auto policy = factory(i, shard_capacity);
    LRUK_ASSERT(policy != nullptr, "shard policy factory returned null");
    shards_.push_back(std::make_unique<BufferPool>(
        shard_capacity, disk_, std::move(policy), per_shard, io_.get()));
  }
  // One last-fix register key for the whole pool: a thread's fix of q on
  // another shard between two fixes of p still separates them.
  for (auto& shard : shards_) shard->fix_key_ = shards_[0]->fix_key_;
}

Result<Page*> ShardedBufferPool::FetchPage(PageId p, AccessType type) {
  bool observable = false;
  auto page = shards_[ShardOf(p)]->FetchPage(
      p, type, readahead_ != nullptr ? &observable : nullptr);
  if (readahead_ != nullptr && page.ok() && observable) {
    // Observe the pool-level fetch stream (wait-free; concurrent fetch
    // streams vote over the merged history) and fan the prefetch targets
    // out to their owning shards (each dedups against its own residents
    // and in-flight tracker). Only OBSERVABLE references — shard demand
    // misses and prefetch-confirmation hits — feed the detector: a scan
    // is made of exactly those, and steady warm hits skipping Observe
    // keeps the detector tax off the shards' latch-free hit paths (the
    // same policy BufferPool applies internally; see its FetchPage
    // overload).
    std::vector<PageId> targets;
    readahead_->Observe(p, &targets);
    for (PageId q : targets) shards_[ShardOf(q)]->RequestPrefetch(q);
  }
  return page;
}

void ShardedBufferPool::RequestPrefetch(PageId p) {
  shards_[ShardOf(p)]->RequestPrefetch(p);
}

void ShardedBufferPool::Quiesce() {
  for (auto& shard : shards_) shard->Quiesce();
}

Result<Page*> ShardedBufferPool::NewPage() {
  // The id must be allocated before the owning shard's latch can be taken
  // (the shard depends on the id's hash), so admission happens in a window
  // where other threads can race on the id. Two races matter when the
  // allocator reuses a previously-deleted id:
  //
  //  * a stale FetchPage of the old id lands in the window, reads the
  //    (re-)allocated disk page and resurrects it in the shard. The admit
  //    then reports AlreadyExists; the id is live in the pool and must NOT
  //    be deallocated — retry with a fresh id.
  //  * a stale DeletePage of the old id lands in the window and, finding
  //    the id non-resident, would free the disk page we are admitting.
  //    The pending set (checked by DeletePage under alloc_latch_) closes
  //    this.
  for (int attempt = 0; attempt < 8; ++attempt) {
    PageId p;
    {
      std::lock_guard<std::mutex> guard(alloc_latch_);
      auto allocated = disk_->AllocatePage();
      if (!allocated.ok()) return allocated.status();
      p = *allocated;
      pending_admits_.insert(p);
    }
    auto page = shards_[ShardOf(p)]->AdmitNewPage(p);
    std::lock_guard<std::mutex> guard(alloc_latch_);
    pending_admits_.erase(p);
    if (page.ok()) return page;
    if (page.status().code() == StatusCode::kAlreadyExists) continue;
    // Reclaim the unused id through the shard (not a raw deallocation):
    // the shard latch serializes against any in-flight fetch that may
    // have resurrected the id, and alloc_latch_ (held) keeps it out of
    // the allocator until the reclaim settles.
    (void)shards_[ShardOf(p)]->DeletePage(p);
    return page;
  }
  return Status::Internal("NewPage lost the admission race repeatedly");
}

Status ShardedBufferPool::UnpinPage(PageId p, bool dirty) {
  return shards_[ShardOf(p)]->UnpinPage(p, dirty);
}

Status ShardedBufferPool::FlushPage(PageId p) {
  return shards_[ShardOf(p)]->FlushPage(p);
}

Status ShardedBufferPool::FlushAll() {
  // Mirror BufferPool::FlushAll's try-all semantics across shards: one
  // failing shard must not leave later shards' dirty pages unattempted.
  // Failed pages keep their dirty flag inside their shard.
  Status first_error = Status::Ok();
  for (auto& shard : shards_) {
    Status flushed = shard->FlushAll();
    if (!flushed.ok() && first_error.ok()) first_error = flushed;
  }
  return first_error;
}

Status ShardedBufferPool::DeletePage(PageId p) {
  // Holding alloc_latch_ for the whole delete (lock order: alloc -> shard
  // -> disk, never the reverse) pins down the two id-reuse races: an id
  // mid-admission is refused instead of having its disk page freed out
  // from under NewPage, and the allocator cannot hand the id out again
  // until the shard-side removal and deallocation have settled.
  std::lock_guard<std::mutex> guard(alloc_latch_);
  if (pending_admits_.contains(p)) {
    return Status::NotFound("page " + std::to_string(p) +
                            " was deleted; its id is being reallocated");
  }
  return shards_[ShardOf(p)]->DeletePage(p);
}

size_t ShardedBufferPool::ResidentCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->ResidentCount();
  return total;
}

bool ShardedBufferPool::IsResident(PageId p) const {
  return shards_[ShardOf(p)]->IsResident(p);
}

BufferPoolStats ShardedBufferPool::stats() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) total += shard->stats();
  return total;
}

BufferPoolStats ShardedBufferPool::StatsSnapshot() const {
  BufferPoolStats total;
  for (const auto& shard : shards_) total += shard->StatsSnapshot();
  return total;
}

void ShardedBufferPool::ResetStats() {
  for (auto& shard : shards_) shard->ResetStats();
}

std::vector<BufferPoolStats> ShardedBufferPool::ShardStats() const {
  std::vector<BufferPoolStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats());
  return out;
}

}  // namespace lruk
