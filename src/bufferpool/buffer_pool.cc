#include "bufferpool/buffer_pool.h"

#include <cstring>
#include <mutex>
#include <numeric>
#include <utility>

#include "util/retry.h"

namespace lruk {

namespace {

// Source of BufferPool::fix_key_ values; 0 is never handed out, so a
// thread's empty register matches no pool.
std::atomic<uint64_t> next_fix_key{1};

// The calling thread's previous successful fix: the pool (by fix key)
// and the page.
struct LastFix {
  uint64_t pool = 0;
  PageId page = kInvalidPageId;
};
thread_local LastFix last_fix;

}  // namespace

BufferPoolStats BufferPool::AtomicPoolStats::ToStats() const {
  BufferPoolStats s;
  s.hits = hits.load(std::memory_order_relaxed);
  s.misses = misses.load(std::memory_order_relaxed);
  s.evictions = evictions.load(std::memory_order_relaxed);
  s.dirty_writebacks = dirty_writebacks.load(std::memory_order_relaxed);
  s.read_failures = read_failures.load(std::memory_order_relaxed);
  s.write_failures = write_failures.load(std::memory_order_relaxed);
  s.retries = retries.load(std::memory_order_relaxed);
  s.coalesced_reads = coalesced_reads.load(std::memory_order_relaxed);
  s.prefetch_issued = prefetch_issued.load(std::memory_order_relaxed);
  s.prefetch_used = prefetch_used.load(std::memory_order_relaxed);
  s.prefetch_dropped = prefetch_dropped.load(std::memory_order_relaxed);
  s.writebehind_writes = writebehind_writes.load(std::memory_order_relaxed);
  s.writebehind_readmits =
      writebehind_readmits.load(std::memory_order_relaxed);
  s.io_drops_flush = io_drops_flush.load(std::memory_order_relaxed);
  s.io_drops_prefetch = io_drops_prefetch.load(std::memory_order_relaxed);
  s.optimistic_hits = optimistic_hits.load(std::memory_order_relaxed);
  s.optimistic_fallbacks = optimistic_fallbacks.load(std::memory_order_relaxed);
  s.fallback_probe_miss = fallback_probe_miss.load(std::memory_order_relaxed);
  s.fallback_version_conflict =
      fallback_version_conflict.load(std::memory_order_relaxed);
  s.fallback_resize = fallback_resize.load(std::memory_order_relaxed);
  s.access_drops = access_drops.load(std::memory_order_relaxed);
  s.correlated_refs = correlated_refs.load(std::memory_order_relaxed);
  s.pin_cas_retries = pin_cas_retries.load(std::memory_order_relaxed);
  s.latch_acquires = latch_acquires.load(std::memory_order_relaxed);
  return s;
}

void BufferPool::AtomicPoolStats::Reset() {
  hits.store(0, std::memory_order_relaxed);
  misses.store(0, std::memory_order_relaxed);
  evictions.store(0, std::memory_order_relaxed);
  dirty_writebacks.store(0, std::memory_order_relaxed);
  read_failures.store(0, std::memory_order_relaxed);
  write_failures.store(0, std::memory_order_relaxed);
  retries.store(0, std::memory_order_relaxed);
  coalesced_reads.store(0, std::memory_order_relaxed);
  prefetch_issued.store(0, std::memory_order_relaxed);
  prefetch_used.store(0, std::memory_order_relaxed);
  prefetch_dropped.store(0, std::memory_order_relaxed);
  writebehind_writes.store(0, std::memory_order_relaxed);
  writebehind_readmits.store(0, std::memory_order_relaxed);
  io_drops_flush.store(0, std::memory_order_relaxed);
  io_drops_prefetch.store(0, std::memory_order_relaxed);
  optimistic_hits.store(0, std::memory_order_relaxed);
  optimistic_fallbacks.store(0, std::memory_order_relaxed);
  fallback_probe_miss.store(0, std::memory_order_relaxed);
  fallback_version_conflict.store(0, std::memory_order_relaxed);
  fallback_resize.store(0, std::memory_order_relaxed);
  access_drops.store(0, std::memory_order_relaxed);
  correlated_refs.store(0, std::memory_order_relaxed);
  pin_cas_retries.store(0, std::memory_order_relaxed);
  latch_acquires.store(0, std::memory_order_relaxed);
}

BufferPool::BufferPool(size_t capacity, DiskManager* disk,
                       std::unique_ptr<ReplacementPolicy> policy,
                       BufferPoolOptions options,
                       IoDispatcher* shared_dispatcher)
    : fix_key_(next_fix_key.fetch_add(1, std::memory_order_relaxed)),
      capacity_(capacity),
      disk_(disk),
      policy_(std::move(policy)),
      options_(options),
      page_table_(capacity) {
  LRUK_ASSERT(capacity_ >= 1, "buffer pool needs at least one frame");
  LRUK_ASSERT(disk_ != nullptr, "buffer pool needs a disk manager");
  LRUK_ASSERT(policy_ != nullptr, "buffer pool needs a replacement policy");
  optimistic_ = options_.optimistic_hits;
  if (optimistic_) {
    // RecordAccess needs the latch, so a latch-free hit publishes here.
    access_buffer_ = std::make_unique<AccessBuffer>(/*capacity=*/64,
                                                    /*stripes=*/8);
  }
  if (options_.io_dispatcher) {
    if (shared_dispatcher != nullptr) {
      io_ = shared_dispatcher;
    } else {
      owned_io_ = std::make_unique<IoDispatcher>(options_.io_workers);
      io_ = owned_io_.get();
    }
    if (options_.readahead) readahead_ = std::make_unique<ReadaheadDetector>();
  }
  frames_ = std::make_unique<Page[]>(capacity_);
  frame_prefetched_ = std::make_unique<std::atomic<uint8_t>[]>(capacity_);
  for (size_t f = 0; f < capacity_; ++f) {
    frame_prefetched_[f].store(0, std::memory_order_relaxed);
  }
  free_frames_.reserve(capacity_);
  for (FrameId f = 0; f < capacity_; ++f) {
    free_frames_.push_back(static_cast<FrameId>(capacity_ - 1 - f));
  }
}

BufferPool::~BufferPool() {
  // Settle in-flight dispatcher work first (prefetch reads land in frame
  // buffers), then best-effort write-back of surviving dirty pages.
  Quiesce();
  (void)FlushAll();
}

Status BufferPool::DiskRead(PageId p, char* out) {
  RetryOutcome outcome = RetryTransient(
      options_.io_max_attempts, [&] { return disk_->ReadPage(p, out); });
  stats_.retries += outcome.retries;
  if (!outcome.status.ok()) ++stats_.read_failures;
  return outcome.status;
}

Status BufferPool::DiskWrite(PageId p, const char* data) {
  RetryOutcome outcome = RetryTransient(
      options_.io_max_attempts, [&] { return disk_->WritePage(p, data); });
  stats_.retries += outcome.retries;
  if (!outcome.status.ok()) ++stats_.write_failures;
  return outcome.status;
}

void BufferPool::DiskWritePages(std::span<PageWrite> writes) {
  // io_max_attempts over the batch: each attempt writes, as one batch, the
  // entries the attempt before left with a retryable error. Each re-issued
  // write counts as one retry, as in DiskWrite.
  std::vector<PageWrite> batch(writes.begin(), writes.end());
  std::vector<size_t> index(writes.size());
  std::iota(index.begin(), index.end(), size_t{0});
  bool reissue = false;
  (void)RetryTransient(options_.io_max_attempts, [&] {
    if (reissue) stats_.retries += batch.size();
    reissue = true;
    disk_->WritePages(batch);
    size_t failed = 0;
    for (size_t j = 0; j < batch.size(); ++j) {
      writes[index[j]].status = batch[j].status;
      if (!batch[j].status.ok() && IsRetryableError(batch[j].status.code())) {
        index[failed] = index[j];
        batch[failed++] = batch[j];
      }
    }
    batch.resize(failed);
    index.resize(failed);
    return failed == 0 ? Status::Ok() : batch.front().status;
  });
}

Result<FrameId> BufferPool::AcquireFrame(
    std::vector<PageId>* deferred_writes) {
  if (!free_frames_.empty()) {
    FrameId f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  // Write-behind needs somewhere off the miss path to run, so a
  // worker-mode dispatcher always writes dirty victims behind. Direct and
  // inline pools keep the synchronous write-back, so deterministic replay
  // sees the exact same disk-op order.
  if (io_ == nullptr || io_->inline_mode()) deferred_writes = nullptr;
  if (!optimistic_) {
    auto victim = policy_->Evict();
    if (!victim.has_value()) {
      return Status::ResourceExhausted(
          "all buffer frames are pinned; cannot evict");
    }
    FrameId f = 0;
    bool found = page_table_.Find(*victim, &f);
    LRUK_ASSERT(found, "policy evicted a page the pool does not hold");
    Page& page = frames_[f];
    LRUK_ASSERT(page.pin_count_.load(std::memory_order_relaxed) == 0,
                "policy evicted a pinned page");
    // Write back BEFORE dismantling any pool state, so a failure can roll
    // the eviction back: the frame still holds the page image and its
    // page-table entry, pin count (0) and dirty bit are untouched —
    // Restore() re-registers the victim with the policy and the pool is
    // exactly as it was before Evict(). No eviction is counted.
    Status written = WriteBackVictim(*victim, page, deferred_writes);
    if (!written.ok()) {
      policy_->Restore(*victim);
      return written;
    }
    page_table_.Erase(*victim);
    page.id_ = kInvalidPageId;
    page.dirty_.store(false, std::memory_order_relaxed);
    ++stats_.evictions;
    return f;
  }
  // Optimistic mode: SetEvictable is unused (a latch-free unpin cannot
  // call it), so the policy nominates pinned pages too; pin counts are
  // the ground truth. Nominate victims in escalating batches — EvictBatch
  // defers the retained-history insertion, so a skipped pinned nominee
  // costs one Restore instead of a full retention + resurrection round
  // trip through LRU-K's bounded non-resident budget. Take the first
  // unpinned nominee that survives the bucket handshake, then restore
  // every unused one in reverse pop order (exact for LRU-K;
  // single-threaded there are no pinned nominations in steady fetch/unpin
  // loops, so the first batch of one behaves identically to the latched
  // path's single Evict()).
  std::vector<PageId>& nominees = nominee_scratch_;  // Latch-guarded.
  std::vector<PageId>& batch = batch_scratch_;
  nominees.clear();
  size_t used = static_cast<size_t>(-1);
  bool stop = false;
  Result<FrameId> result = Status::ResourceExhausted(
      "all buffer frames are pinned; cannot evict");
  size_t want = 1;
  while (!stop) {
    if (policy_->EvictBatch(want, &batch) == 0) break;
    for (PageId victim : batch) {
      nominees.push_back(victim);
      if (stop) continue;  // Unexamined tail of the batch: restore below.
      FrameId f = 0;
      bool found = page_table_.Find(victim, &f);
      LRUK_ASSERT(found, "policy evicted a page the pool does not hold");
      Page& page = frames_[f];
      // Invalidate the bucket FIRST, then read the pin count: any
      // optimistic reader that pinned before our version bump is visible
      // here (seq_cst store-load handshake); any later one fails its
      // validation and undoes its pin. A transient speculative pin from a
      // stale reader can park a +1 on any frame, so a nonzero count only
      // means "skip", never "corrupt".
      size_t bucket = page_table_.LockBucket(victim);
      if (page.pin_count_.load() != 0) {
        page_table_.UnlockUnchanged(bucket);
        continue;
      }
      // Unpinned and the bucket is odd: no reader can validate a new pin
      // until we release the bucket, so the frame is exclusively ours —
      // the write-back (or write-behind image copy) cannot race a page
      // writer.
      Status written = WriteBackVictim(victim, page, deferred_writes);
      if (!written.ok()) {
        // The failed nominee is restored below with the rest (it is the
        // most recent examined pop, so reverse order restores it in its
        // exact Evict-undo position).
        page_table_.UnlockUnchanged(bucket);
        result = written;
        stop = true;
        continue;
      }
      page_table_.UnlockErased(bucket);
      page.id_ = kInvalidPageId;
      page.dirty_.store(false, std::memory_order_relaxed);
      ++stats_.evictions;
      result = f;
      used = nominees.size() - 1;
      stop = true;
    }
    // Every nominee so far was pinned: widen the net.
    want = want < 4 ? 4 : 16;
  }
  for (size_t i = nominees.size(); i-- > 0;) {
    if (i != used) policy_->Restore(nominees[i]);
  }
  return result;
}

Status BufferPool::WriteBackVictim(PageId v, const Page& page,
                                   std::vector<PageId>* deferred_writes) {
  if (!page.is_dirty()) return Status::Ok();
  if (deferred_writes != nullptr) {
    // Write-behind: copy the image aside (the "pinned copy") and hand the
    // write to the Flush lane after the latch drops — the frame is
    // reusable immediately and the miss path never waits on it. A failed
    // write re-admits exactly (ReadmitFailedVictimLocked).
    auto vw = std::make_shared<VictimWrite>();
    vw->image = std::make_unique<char[]>(kPageSize);
    std::memcpy(vw->image.get(), page.Data(), kPageSize);
    pending_victim_writes_.emplace(v, std::move(vw));
    deferred_writes->push_back(v);
    return Status::Ok();
  }
  LRUK_RETURN_IF_ERROR(DiskWrite(v, page.Data()));
  ++stats_.dirty_writebacks;
  return Status::Ok();
}

void BufferPool::DrainAccessBufferLocked() const {
  // unique_ptr members are shallow-const, so observation paths (stats)
  // can drain through the same helper as mutating ones. Records for
  // since-evicted pages are dropped and counted (access_drops): a record
  // can stall behind another producer's unpublished claim and surface
  // only after its page was evicted, and a latch-free pin + publish +
  // unpin can complete entirely inside another thread's latch hold — so
  // residency at drain time is the only safe filter. Single-threaded
  // nothing is ever dropped: every eviction point drains first, and the
  // ring is exactly FIFO without concurrent producers.
  if (access_buffer_ == nullptr) return;
  size_t dropped = 0;
  access_buffer_->Drain(*policy_, /*skip_non_resident=*/true, &dropped);
  if (dropped != 0) {
    stats_.access_drops.fetch_add(dropped, std::memory_order_relaxed);
  }
}

void BufferPool::FinishPendingLocked(PageId p,
                                     const std::shared_ptr<PendingIo>& entry,
                                     Status status) {
  entry->status = std::move(status);
  entry->done = true;
  pending_reads_.erase(p);
  entry->cv.notify_all();
  quiesce_cv_.notify_all();
}

void BufferPool::FencePageLocked(std::unique_lock<std::mutex>& guard,
                                 PageId p) {
  // Waits out every in-flight read of `p`, any in-flight write-behind
  // victim write of `p` and any flush of `p` (there is at most one of each
  // at a time, but a completion can be followed by a new one before we
  // re-acquire the latch, hence the loop). A flush's pin is not the
  // caller's, so a delete or flush of the page must not see it.
  for (;;) {
    if (flushing_.contains(p)) {
      flush_cv_.wait(guard, [&] { return !flushing_.contains(p); });
      continue;
    }
    if (io_ == nullptr) return;
    auto it = pending_reads_.find(p);
    if (it != pending_reads_.end()) {
      std::shared_ptr<PendingIo> entry = it->second;
      entry->cv.wait(guard, [&] { return entry->done; });
      continue;
    }
    auto vw = pending_victim_writes_.find(p);
    if (vw != pending_victim_writes_.end()) {
      std::shared_ptr<VictimWrite> entry = vw->second;
      entry->cv.wait(guard, [&] { return entry->done; });
      continue;
    }
    return;
  }
}

void BufferPool::QuiesceLocked(std::unique_lock<std::mutex>& guard) {
  if (io_ == nullptr) return;
  quiesce_cv_.wait(guard, [&] {
    return pending_reads_.empty() && pending_victim_writes_.empty() &&
           inflight_prefetches_ == 0;
  });
}

void BufferPool::Quiesce() {
  auto guard = Lock();
  QuiesceLocked(guard);
}

bool BufferPool::RegisterPrefetchLocked(PageId p) {
  if (page_table_.contains(p) || pending_reads_.contains(p)) return false;
  // A page with its own victim write in flight (or a parked image) will be
  // re-served from pool state, not from the possibly-stale disk image.
  if (pending_victim_writes_.contains(p) || parked_victims_.contains(p)) {
    return false;
  }
  if (io_ != nullptr && !io_->inline_mode()) {
    // Worker mode: bound concurrently in-flight prefetches. (Inline mode
    // never has more than the one executing synchronously right now.)
    if (inflight_prefetches_ >= kReadaheadWindow) return false;
  }
  pending_reads_.emplace(p, std::make_shared<PendingIo>());
  ++inflight_prefetches_;
  ++stats_.prefetch_issued;
  return true;
}

void BufferPool::ExecutePrefetch(PageId p) {
  auto guard = Lock();
  auto it = pending_reads_.find(p);
  LRUK_ASSERT(it != pending_reads_.end(), "prefetch lost its tracker entry");
  std::shared_ptr<PendingIo> entry = it->second;
  // A page stays out of the page table for as long as its tracker entry is
  // alive (demand fetches coalesce onto the entry, AdmitNewPage fences).
  LRUK_ASSERT(!page_table_.contains(p),
              "page admitted while its prefetch was in flight");
  auto abandon = [&](Status status) {
    // Prefetch failures never surface to demand fetches: coalesced waiters
    // retry as primaries and take their own (fully accounted) read.
    ++stats_.prefetch_dropped;
    entry->retry_as_primary = true;
    FinishPendingLocked(p, entry, std::move(status));
    --inflight_prefetches_;
    quiesce_cv_.notify_all();
  };
  DrainAccessBufferLocked();
  policy_->PrepareAdmit(p);
  std::vector<PageId> deferred;
  auto frame = AcquireFrame(&deferred);
  if (!frame.ok()) {
    abandon(frame.status());
    guard.unlock();
    LaunchDeferredVictimWrites(deferred);
    return;
  }
  Page& page = frames_[*frame];
  // The read itself runs with the latch released (we are on a worker in
  // worker mode, or past the foreground admission in inline mode); the
  // frame is reserved — in neither the free list nor the page table — and
  // the tracker entry keeps every other path off the page. The deferred
  // victim write (if any) is posted first so it overlaps the read
  // (TryPost from a worker never blocks).
  guard.unlock();
  LaunchDeferredVictimWrites(deferred);
  RetryOutcome outcome = RetryTransient(options_.io_max_attempts, [&] {
    return disk_->ReadPage(p, page.Data());
  });
  guard.lock();
  CountLatchAcquire();
  stats_.retries += outcome.retries;
  if (!outcome.status.ok()) {
    free_frames_.push_back(*frame);
    abandon(outcome.status);
    return;
  }
  page.id_ = p;
  // The frame came out of AcquireFrame with pin 0 and its clean image is
  // being installed; only the dirty flag needs (re)setting — pin counts
  // are never blind-stored (a stale optimistic reader may hold a
  // transient +1 it is about to undo).
  page.dirty_.store(false, std::memory_order_relaxed);
  page_table_.Insert(p, *frame);
  frame_prefetched_[*frame].store(1, std::memory_order_relaxed);
  // The admission ticks the policy clock; the demand reference that
  // (hopefully) follows lands as a hit within the correlated period.
  policy_->Admit(p, AccessType::kRead);
  FinishPendingLocked(p, entry, Status::Ok());
  --inflight_prefetches_;
  quiesce_cv_.notify_all();
}

void BufferPool::CollectPrefetchesLocked(PageId p, bool observe,
                                         std::vector<PageId>* targets) {
  if (readahead_ == nullptr || !observe) return;
  readahead_->Observe(p, &readahead_scratch_);
  for (PageId q : readahead_scratch_) {
    if (RegisterPrefetchLocked(q)) targets->push_back(q);
  }
}

void BufferPool::LaunchPrefetches(const std::vector<PageId>& prefetches) {
  for (PageId q : prefetches) {
    if (io_->TryPost([this, q] { ExecutePrefetch(q); }, IoClass::kPrefetch)) {
      continue;
    }
    // Lane full: the prefetch never runs, so retire its tracker entry
    // here. Any demand fetch already waiting retries as a primary.
    auto guard = Lock();
    auto it = pending_reads_.find(q);
    LRUK_ASSERT(it != pending_reads_.end() && !it->second->done,
                "rejected prefetch already completed");
    std::shared_ptr<PendingIo> entry = it->second;
    ++stats_.prefetch_dropped;
    ++stats_.io_drops_prefetch;
    entry->retry_as_primary = true;
    FinishPendingLocked(q, entry,
                        Status::ResourceExhausted("dispatcher queue full"));
    --inflight_prefetches_;
    quiesce_cv_.notify_all();
  }
}

void BufferPool::RequestPrefetch(PageId p) {
  if (io_ == nullptr) return;
  {
    auto guard = Lock();
    if (!RegisterPrefetchLocked(p)) return;
  }
  LaunchPrefetches({p});
}

Page* BufferPool::TryOptimisticHit(PageId p, AccessType type, bool refix,
                                   bool* observable) {
  PageTable::Snapshot snap;
  PageTable::ProbeFail why = PageTable::ProbeFail::kNone;
  if (!page_table_.OptimisticFind(p, &snap, &why)) {
    CountOptimisticFallback(why);
    return nullptr;
  }
  Page& page = frames_[snap.frame];
  // Speculative pin, then re-validate: if the bucket's version moved, an
  // eviction/delete/shift touched the mapping and the pin may sit on the
  // wrong (or recycled) frame — undo and fall back. If it validates, the
  // seq_cst handshake guarantees every mutator that subsequently locks
  // the bucket sees this pin (see AcquireFrame).
  page.pin_count_.fetch_add(1);
  if (!page_table_.Validate(snap)) {
    page.pin_count_.fetch_sub(1);
    CountOptimisticFallback(PageTable::ProbeFail::kVersionConflict);
    return nullptr;
  }
  // Pinned and validated: p -> snap.frame is stable until our unpin.
  if (type == AccessType::kWrite) {
    page.dirty_.store(true, std::memory_order_release);
  }
  const bool was_prefetched =
      frame_prefetched_[snap.frame].exchange(0, std::memory_order_relaxed) !=
      0;
  if (was_prefetched) {
    stats_.prefetch_used.fetch_add(1, std::memory_order_relaxed);
  }
  if (observable != nullptr) *observable = was_prefetched;
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  stats_.optimistic_hits.fetch_add(1, std::memory_order_relaxed);
  // Publish the reference after the pin, never under any latch. The pin
  // keeps p resident until at least our own unpin; a record that outlives
  // the page's residency anyway (late drain) is dropped by the
  // skip-non-resident drain. A correlated re-fix publishes nothing.
  if (refix) {
    stats_.correlated_refs.fetch_add(1, std::memory_order_relaxed);
  } else if (!access_buffer_->TryPush({p, /*process=*/0, type})) {
    // Stripe full: the latched slow path — drain and apply directly,
    // preserving FIFO order exactly as the latched hit branch does.
    auto guard = Lock();
    DrainAccessBufferLocked();
    policy_->RecordAccess(p, type);
  }
  // Readahead, after the publish (same order as the latched hit
  // branch, so an inline-mode prefetch admission drains this reference
  // first). The detector sees only OBSERVABLE references — demand misses
  // and prefetch-confirmation hits like this one. A steady-state warm
  // hit skips Observe entirely: a scan's references are always misses or
  // first touches of prefetched frames (a scan visits each page once),
  // so nothing detectable is lost, and the detector's per-call cost —
  // small, but a measurable fraction of a ~650 ns latch-free hit — comes
  // off the warm path completely. A scan entering cold territory from a
  // fully-resident stretch re-arms within kReadaheadMinRun misses.
  std::vector<PageId> targets;
  if (readahead_ != nullptr && was_prefetched) {
    readahead_->Observe(p, &targets);
    if (!targets.empty()) {
      // Latch-free pre-filter: drop targets the wait-free probe already
      // finds resident. RegisterPrefetchLocked would refuse them anyway,
      // so this only avoids taking the latch for triggers whose window
      // is already cached (common when clustered non-scan traffic
      // happens to vote) — exactly what the latched register would have
      // concluded; uncertain probes (conflict/bound) are kept for it.
      size_t kept = 0;
      for (PageId q : targets) {
        PageTable::Snapshot snap;
        if (!page_table_.OptimisticFind(q, &snap)) targets[kept++] = q;
      }
      targets.resize(kept);
    }
  }
  if (!targets.empty()) {
    std::vector<PageId> registered;
    auto guard = Lock();
    for (PageId q : targets) {
      if (RegisterPrefetchLocked(q)) registered.push_back(q);
    }
    guard.unlock();
    LaunchPrefetches(registered);
  }
  return &page;
}

Result<Page*> BufferPool::FetchPage(PageId p, AccessType type) {
  return FetchPage(p, type, nullptr);
}

void BufferPool::NoteFix(PageId p) const { last_fix = {fix_key_, p}; }

Result<Page*> BufferPool::FetchPage(PageId p, AccessType type,
                                    bool* observable) {
  const bool refix = last_fix.pool == fix_key_ && last_fix.page == p;
  auto page = FixPage(p, type, refix, observable);
  if (page.ok()) NoteFix(p);
  return page;
}

Result<Page*> BufferPool::FixPage(PageId p, AccessType type, bool refix,
                                  bool* observable) {
  if (observable != nullptr) *observable = false;
  if (optimistic_) {
    if (Page* page = TryOptimisticHit(p, type, refix, observable)) {
      return page;
    }
    if (observable != nullptr) *observable = false;  // Fallback re-decides.
  }
  auto guard = Lock();
  // Whether this fetch has already been counted (a coalesced waiter counts
  // its miss when it starts waiting, then resolves through the hit branch
  // or the primary path below without recounting; so does a miss that
  // waits out a flush's pins and starts over).
  bool counted = false;
  // The primary miss path's frame and deferred victim writes.
  FrameId frame = 0;
  std::vector<PageId> deferred;
  for (;;) {
    FrameId f = 0;
    if (page_table_.Find(p, &f)) {
      Page& page = frames_[f];
      if (!counted) ++stats_.hits;
      // Only a hit collapses: a coalesced waiter (counted) was a miss.
      const bool correlated = refix && !counted;
      if (correlated) ++stats_.correlated_refs;
      const bool was_prefetched =
          frame_prefetched_[f].exchange(0, std::memory_order_relaxed) != 0;
      if (was_prefetched) ++stats_.prefetch_used;
      if (observable != nullptr) *observable = was_prefetched;
      if (!correlated) {
        // Under the latch, after any latch-free hits still in the ring, as
        // the ring-full path in TryOptimisticHit does.
        DrainAccessBufferLocked();
        policy_->RecordAccess(p, type);
      }
      if (!optimistic_ &&
          page.pin_count_.load(std::memory_order_relaxed) == 0) {
        policy_->SetEvictable(p, false);
      }
      page.pin_count_.fetch_add(1);
      if (type == AccessType::kWrite) {
        page.dirty_.store(true, std::memory_order_release);
      }
      // Same observation policy as the optimistic hit path: only a
      // prefetch-confirmation hit feeds the scan detector.
      std::vector<PageId> targets;
      CollectPrefetchesLocked(p, was_prefetched, &targets);
      guard.unlock();
      LaunchPrefetches(targets);
      return &page;
    }
    if (io_ != nullptr) {
      // The page's own write-behind victim write may still be in flight: a
      // disk read now could return the stale pre-eviction image. Wait it
      // out; the re-loop then sees the page re-admitted (failed write), or
      // takes a normal miss against the fresh on-disk image.
      auto vw = pending_victim_writes_.find(p);
      if (vw != pending_victim_writes_.end()) {
        std::shared_ptr<VictimWrite> entry = vw->second;
        entry->cv.wait(guard, [&] { return entry->done; });
        continue;
      }
      // A parked image (failed write-behind, no frame at re-admit time) is
      // the authoritative copy — the disk's is stale. Re-admit it here,
      // dirty, with its retained LRU-K history (Restore), then serve the
      // fetch as the reference it is.
      auto parked = parked_victims_.find(p);
      if (parked != parked_victims_.end()) {
        if (!counted) ++stats_.misses;  // Not resident; no physical read.
        counted = true;
        if (observable != nullptr) *observable = true;  // A miss.
        std::unique_ptr<char[]> image = std::move(parked->second);
        parked_victims_.erase(parked);
        DrainAccessBufferLocked();
        auto readmit = AcquireFrame(&deferred);
        if (!readmit.ok()) {  // Nothing deferred on failure.
          parked_victims_.emplace(p, std::move(image));  // Still parked.
          if (AwaitFlushLocked(guard, readmit.status())) continue;
          return readmit.status();
        }
        Page& page = frames_[*readmit];
        std::memcpy(page.Data(), image.get(), kPageSize);
        page.id_ = p;
        page.pin_count_.fetch_add(1);  // Never a store; see below.
        page.dirty_.store(true, std::memory_order_relaxed);
        page_table_.Insert(p, *readmit);
        frame_prefetched_[*readmit].store(0, std::memory_order_relaxed);
        policy_->Restore(p);
        policy_->RecordAccess(p, type);
        if (!optimistic_) policy_->SetEvictable(p, false);
        if (type == AccessType::kWrite) {
          page.dirty_.store(true, std::memory_order_release);
        }
        ++stats_.writebehind_readmits;
        guard.unlock();
        LaunchDeferredVictimWrites(deferred);
        return &page;
      }
      // The per-page request tracker: a read of p already in flight
      // (another thread's miss, or a prefetch) absorbs this miss — wait
      // for it instead of issuing a second physical read.
      auto pending = pending_reads_.find(p);
      if (pending != pending_reads_.end()) {
        if (!counted) {
          ++stats_.misses;
          ++stats_.coalesced_reads;
          counted = true;
        }
        std::shared_ptr<PendingIo> entry = pending->second;
        entry->cv.wait(guard, [&] { return entry->done; });
        if (!entry->status.ok() && !entry->retry_as_primary) {
          // The coalesced read failed: every waiter reports the same
          // status the primary saw (the failure was counted once, by the
          // primary).
          return entry->status;
        }
        // Success: the page should be resident now (re-loop to the hit
        // branch). An abandoned prefetch (retry_as_primary) or an
        // admission already evicted again falls through to a fresh
        // primary miss instead.
        continue;
      }
    }

    if (!counted) ++stats_.misses;
    counted = true;
    // Deferred references precede this fault in the reference string;
    // apply them before the policy sees the admission (and before any
    // eviction decision, which must act on a fully drained view).
    DrainAccessBufferLocked();
    policy_->PrepareAdmit(p);
    auto acquired = AcquireFrame(&deferred);
    if (acquired.ok()) {
      frame = *acquired;
      break;
    }
    // Nothing deferred on failure. After waiting out a flush, start over:
    // another thread may have admitted p meanwhile.
    if (!AwaitFlushLocked(guard, acquired.status())) return acquired.status();
  }

  if (observable != nullptr) *observable = true;  // A demand miss.
  Page& page = frames_[frame];
  Status read;
  if (io_ != nullptr) {
    // Register in the tracker, release the latch, and run the read through
    // the dispatcher: concurrent misses on p coalesce onto this entry, and
    // the rest of the pool stays serviceable during the I/O. The frame is
    // reserved (neither free nor mapped), so nothing else can claim it.
    // The deferred victim write (if any) is posted before the demand read
    // is issued, so the write-back overlaps the read instead of preceding
    // it — the point of write-behind.
    auto entry = std::make_shared<PendingIo>();
    pending_reads_.emplace(p, entry);
    RetryOutcome outcome;
    guard.unlock();
    LaunchDeferredVictimWrites(deferred);
    deferred.clear();
    io_->Run([&] {
      outcome = RetryTransient(options_.io_max_attempts,
                               [&] { return disk_->ReadPage(p, page.Data()); });
    });
    guard.lock();
    CountLatchAcquire();
    stats_.retries += outcome.retries;
    if (!outcome.status.ok()) ++stats_.read_failures;
    read = outcome.status;
    FinishPendingLocked(p, entry, read);
  } else {
    read = DiskRead(p, page.Data());
  }
  if (!read.ok()) {
    // The page was never admitted: the policy has no entry for p, the
    // page table is untouched, and the frame (legitimately freed by a
    // completed eviction, or taken from the free list) goes back unused.
    free_frames_.push_back(frame);
    return read;
  }
  page.id_ = p;
  // fetch_add, not a store: in optimistic mode a stale reader may be
  // holding a transient speculative +1 on this frame (it will undo it
  // after failing validation), and a blind store would erase that.
  page.pin_count_.fetch_add(1);
  page.dirty_.store(type == AccessType::kWrite, std::memory_order_relaxed);
  page_table_.Insert(p, frame);
  frame_prefetched_[frame].store(0, std::memory_order_relaxed);
  policy_->Admit(p, type);
  if (!optimistic_) policy_->SetEvictable(p, false);
  // A demand miss is always observable: the cold front of a scan is a run
  // of misses, which is exactly where detection must lock on.
  std::vector<PageId> targets;
  CollectPrefetchesLocked(p, /*observe=*/true, &targets);
  guard.unlock();
  LaunchPrefetches(targets);
  return &page;
}

Result<Page*> BufferPool::NewPage() {
  std::vector<PageId> deferred;
  auto guard = Lock();
  auto allocated = disk_->AllocatePage();
  if (!allocated.ok()) return allocated.status();
  PageId p = *allocated;
  auto page = AdmitNewPageLocked(guard, p, &deferred);
  if (!page.ok()) (void)disk_->DeallocatePage(p);
  guard.unlock();
  LaunchDeferredVictimWrites(deferred);
  if (page.ok()) NoteFix(p);
  return page;
}

Result<Page*> BufferPool::AdmitNewPage(PageId p) {
  std::vector<PageId> deferred;
  auto guard = Lock();
  auto page = AdmitNewPageLocked(guard, p, &deferred);
  guard.unlock();
  LaunchDeferredVictimWrites(deferred);
  if (page.ok()) NoteFix(p);
  return page;
}

Result<Page*> BufferPool::AdmitNewPageLocked(
    std::unique_lock<std::mutex>& guard, PageId p,
    std::vector<PageId>* deferred_writes) {
  FrameId frame = 0;
  for (;;) {
    // A reallocated id can have a stale prefetch in flight (the readahead
    // window ran past a page another thread deleted); wait it out so the
    // admission cannot race the prefetch's own admission of p.
    FencePageLocked(guard, p);
    if (page_table_.contains(p)) {
      return Status::AlreadyExists("admit of resident page " +
                                   std::to_string(p));
    }
    DrainAccessBufferLocked();  // As on the miss path: admit/evict on a
                                // fully drained view.
    policy_->PrepareAdmit(p);
    auto acquired = AcquireFrame(deferred_writes);
    if (acquired.ok()) {
      frame = *acquired;
      break;
    }
    if (!AwaitFlushLocked(guard, acquired.status())) return acquired.status();
  }
  Page& page = frames_[frame];
  page.ZeroFill();
  page.id_ = p;
  page.pin_count_.fetch_add(1);  // Never a store; see FetchPage.
  page.dirty_.store(true, std::memory_order_relaxed);  // Must reach disk
                                                       // at least once.
  page_table_.Insert(p, frame);
  frame_prefetched_[frame].store(0, std::memory_order_relaxed);
  policy_->Admit(p, AccessType::kWrite);
  if (!optimistic_) policy_->SetEvictable(p, false);
  return &page;
}

Status BufferPool::UnpinPage(PageId p, bool dirty) {
  if (optimistic_) {
    PageTable::Snapshot snap;
    PageTable::ProbeFail why = PageTable::ProbeFail::kNone;
    if (page_table_.OptimisticFind(p, &snap, &why)) {
      // The caller's own pin (its API obligation) keeps p resident, and a
      // resident page never changes frames — so a consistent probe gives
      // the right frame even if the bucket shifts afterwards. Order
      // matters: set dirty BEFORE the decrement, so a mutator that sees
      // pin == 0 under its bucket lock also sees the dirty bit.
      Page& page = frames_[snap.frame];
      int cur = page.pin_count_.load();
      if (cur > 0) {
        if (dirty) page.dirty_.store(true, std::memory_order_release);
        while (cur > 0) {
          if (page.pin_count_.compare_exchange_weak(cur, cur - 1)) {
            return Status::Ok();
          }
          stats_.pin_cas_retries.fetch_add(1, std::memory_order_relaxed);
        }
      }
      // cur dropped to 0: unpin of an unpinned page (or a misuse race) —
      // let the latched path produce the authoritative error. (Not an
      // attributed fallback: the probe itself succeeded.)
    } else {
      // Probe failed (absent or unstable): latched path for the
      // authoritative NotFound / InvalidArgument.
      CountOptimisticFallback(why);
    }
  }
  auto guard = Lock();
  FrameId f = 0;
  if (!page_table_.Find(p, &f)) {
    return Status::NotFound("unpin of non-resident page " + std::to_string(p));
  }
  Page& page = frames_[f];
  if (page.pin_count_.load(std::memory_order_relaxed) <= 0) {
    return Status::InvalidArgument("unpin of unpinned page " +
                                   std::to_string(p));
  }
  if (dirty) page.dirty_.store(true, std::memory_order_release);
  if (page.pin_count_.fetch_sub(1) == 1 && !optimistic_) {
    policy_->SetEvictable(p, true);
  }
  return Status::Ok();
}

Status BufferPool::FlushPage(PageId p) {
  auto guard = Lock();
  // A read in flight may be admitting p; a victim write in flight IS the
  // flush (on failure the fence's wake-up sees the page re-admitted dirty
  // below, or parked); a flush of p in flight is waited out, so the two
  // writes cannot land out of order.
  FencePageLocked(guard, p);
  DrainAccessBufferLocked();
  {
    auto parked = parked_victims_.find(p);
    if (parked != parked_victims_.end()) {
      // The parked image is the authoritative copy; persisting it IS the
      // flush. On failure it stays parked (retried by the next flush).
      LRUK_RETURN_IF_ERROR(DiskWrite(p, parked->second.get()));
      parked_victims_.erase(p);
      return Status::Ok();
    }
  }
  FrameId f = 0;
  if (!page_table_.Find(p, &f)) {
    return Status::NotFound("flush of non-resident page " + std::to_string(p));
  }
  // (Like the latched pool, an explicit flush may run while the caller —
  // who requested it — still writes the pinned page; coordinating that is
  // the caller's job, in both modes.)
  const std::pair<PageId, FrameId> target[] = {{p, f}};
  return FlushFramesLocked(guard, target);
}

Status BufferPool::FlushAll() {
  auto guard = Lock();
  // Drain the dispatcher first: in-flight reads are landing in frame
  // buffers and queued background work may still dirty the picture. Wait
  // out another flush still writing too, so no page is ever under two
  // flushes. Both must hold under one latch hold: while this call waits
  // for a flush, a write-behind miss may evict a dirty page and post its
  // write, so the quiesce is repeated until neither is in flight. From
  // here to the batch below this call sees a settled pool.
  for (;;) {
    QuiesceLocked(guard);
    if (flushing_.empty()) break;
    flush_cv_.wait(guard, [&] { return flushing_.empty(); });
  }
  // Also the teardown drain: the destructor flushes, so no reference is
  // ever lost to a dropped buffer.
  DrainAccessBufferLocked();
  // Parked victim images (failed write-behind, no frame to re-admit into)
  // are dirty pages too; the quiesce above guarantees the set is settled.
  // They are rare, and written under the latch, before the batch releases
  // it: a miss could otherwise re-admit one past this loop.
  Status parked_error = Status::Ok();
  for (auto it = parked_victims_.begin(); it != parked_victims_.end();) {
    Status written = DiskWrite(it->first, it->second.get());
    if (written.ok()) {
      it = parked_victims_.erase(it);
    } else {
      if (parked_error.ok()) parked_error = written;
      ++it;
    }
  }
  std::vector<std::pair<PageId, FrameId>> targets;
  page_table_.ForEach([&](PageId p, FrameId frame) {
    if (frames_[frame].is_dirty()) targets.emplace_back(p, frame);
  });
  // Every dirty page is tried even after a failure (a single bad page must
  // not shadow the rest); the first error is reported, resident pages
  // before parked images, and failed pages stay dirty so a later FlushAll
  // completes the job.
  Status first_error = FlushFramesLocked(guard, targets);
  return first_error.ok() ? parked_error : first_error;
}

Status BufferPool::FlushFramesLocked(
    std::unique_lock<std::mutex>& guard,
    std::span<const std::pair<PageId, FrameId>> targets) {
  std::vector<PageWrite> writes;
  std::vector<FrameId> frames;
  for (const auto& [p, f] : targets) {
    Page& page = frames_[f];
    // Clearing the dirty bit before the write, not after it, means a
    // modification that lands during the write leaves the page dirty for
    // the next flush or eviction. (Acquire: pairs with the release of the
    // unpin that dirtied it.) A clean page already matches its disk image.
    if (!page.dirty_.exchange(false, std::memory_order_acquire)) continue;
    // The pin keeps the frame mapped to p (no eviction or delete) while
    // the device reads it without the latch.
    if (page.pin_count_.fetch_add(1) == 0 && !optimistic_) {
      policy_->SetEvictable(p, false);
    }
    flushing_.insert(p);
    writes.push_back({p, page.Data(), Status::Ok()});
    frames.push_back(f);
  }
  if (writes.empty()) return Status::Ok();
  guard.unlock();
  DiskWritePages(writes);
  guard.lock();
  CountLatchAcquire();
  Status first_error = Status::Ok();
  for (size_t i = 0; i < writes.size(); ++i) {
    const PageId p = writes[i].page;
    Page& page = frames_[frames[i]];
    if (!writes[i].status.ok()) {
      // Dirty again, so the write is retried by the next flush or eviction
      // rather than silently dropped.
      page.dirty_.store(true, std::memory_order_relaxed);
      ++stats_.write_failures;
      if (first_error.ok()) first_error = writes[i].status;
    }
    if (page.pin_count_.fetch_sub(1) == 1 && !optimistic_) {
      policy_->SetEvictable(p, true);
    }
    flushing_.erase(p);
  }
  ++flushes_done_;
  flush_cv_.notify_all();
  return first_error;
}

bool BufferPool::AwaitFlushLocked(std::unique_lock<std::mutex>& guard,
                                  const Status& failed) {
  if (failed.code() != StatusCode::kResourceExhausted || flushing_.empty()) {
    return false;
  }
  const uint64_t done = flushes_done_;
  flush_cv_.wait(guard, [&] { return flushes_done_ != done; });
  return true;
}

Status BufferPool::DeletePage(PageId p) {
  auto guard = Lock();
  // Fence in-flight reads of p: a prefetch that already left the queue
  // must finish (and admit its page) before the delete dismantles it —
  // otherwise its completion would resurrect a page the disk no longer
  // holds. No new read of p can start while we hold the latch.
  FencePageLocked(guard, p);
  // Any buffered reference to p must reach the policy before Remove()
  // forgets the page (a post-Remove RecordAccess would fault); a record
  // that drains after the delete is dropped by the skip-non-resident drain.
  DrainAccessBufferLocked();
  FrameId f = 0;
  bool resident = page_table_.Find(p, &f);
  if (resident && !optimistic_ &&
      frames_[f].pin_count_.load(std::memory_order_relaxed) > 0) {
    return Status::InvalidArgument("delete of pinned page " +
                                   std::to_string(p));
  }
  size_t bucket = 0;
  if (resident && optimistic_) {
    // Bucket handshake before the pin check, exactly as in eviction: a
    // concurrent latch-free pin is either visible here (delete refused —
    // a transient speculative pin can cause a spurious refusal, which is
    // inherent to deleting a page others may be fetching) or fails its
    // validation.
    bucket = page_table_.LockBucket(p);
    if (frames_[f].pin_count_.load() != 0) {
      page_table_.UnlockUnchanged(bucket);
      return Status::InvalidArgument("delete of pinned page " +
                                     std::to_string(p));
    }
  }
  // Deallocate on disk FIRST: if it fails, the pool (frame table, policy
  // history, dirty image) is untouched and the page is still usable.
  Status deallocated = disk_->DeallocatePage(p);
  if (!deallocated.ok()) {
    if (resident && optimistic_) page_table_.UnlockUnchanged(bucket);
    return deallocated;
  }
  // A parked image of a deleted page is intentionally discarded: its data
  // has no home on disk anymore.
  parked_victims_.erase(p);
  if (resident) {
    Page& page = frames_[f];
    policy_->Remove(p);
    free_frames_.push_back(f);
    frame_prefetched_[f].store(0, std::memory_order_relaxed);
    page.id_ = kInvalidPageId;
    page.dirty_.store(false, std::memory_order_relaxed);
    if (optimistic_) {
      page_table_.UnlockErased(bucket);
    } else {
      page_table_.Erase(p);
    }
  }
  return Status::Ok();
}

void BufferPool::LaunchDeferredVictimWrites(
    const std::vector<PageId>& victims) {
  for (PageId v : victims) {
    if (io_->TryPost([this, v] { ExecuteVictimWrite(v, /*foreground=*/false); },
                     IoClass::kFlush)) {
      continue;
    }
    // Flush lane full: the image must still reach disk (or the page be
    // re-admitted) before anyone can read p again, so run the write here,
    // synchronously — the one case where write-behind stalls the
    // foreground, and it counts as such (dirty_writebacks).
    ++stats_.io_drops_flush;
    ExecuteVictimWrite(v, /*foreground=*/true);
  }
}

void BufferPool::ExecuteVictimWrite(PageId v, bool foreground) {
  auto guard = Lock();
  auto it = pending_victim_writes_.find(v);
  LRUK_ASSERT(it != pending_victim_writes_.end(),
              "victim write lost its entry");
  std::shared_ptr<VictimWrite> vw = it->second;
  // The write runs with the latch released (a Flush-lane worker, or the
  // submitting thread on lane-full fallback). The map entry keeps every
  // reader of p waiting: a demand fetch of p, a prefetch registration, a
  // fence — none can touch p's stale disk image while we are here.
  guard.unlock();
  RetryOutcome outcome = RetryTransient(options_.io_max_attempts, [&] {
    return disk_->WritePage(v, vw->image.get());
  });
  guard.lock();
  CountLatchAcquire();
  stats_.retries += outcome.retries;
  Status written = outcome.status;
  if (written.ok()) {
    if (foreground) {
      ++stats_.dirty_writebacks;
    } else {
      ++stats_.writebehind_writes;
    }
  } else {
    ++stats_.write_failures;
    // Exact rollback, just later than the synchronous path's: the page
    // comes back dirty with its retained policy history (or its image is
    // parked when every frame is pinned). The eviction stays counted.
    ReadmitFailedVictimLocked(v, std::move(vw->image));
  }
  vw->status = written;
  vw->done = true;
  pending_victim_writes_.erase(v);
  vw->cv.notify_all();
  quiesce_cv_.notify_all();
}

void BufferPool::ReadmitFailedVictimLocked(PageId v,
                                           std::unique_ptr<char[]> image) {
  DrainAccessBufferLocked();  // Evict below acts on a fully drained view.
  // No deferral here: a nested dirty victim is written synchronously, so a
  // failing disk cannot cascade write-behind entries indefinitely.
  auto frame = AcquireFrame(nullptr);
  if (!frame.ok()) {
    // Every frame pinned (or the nested write-back failed too): park the
    // image — the only copy of the page's data — rather than lose it.
    // FetchPage re-admits it, FlushPage/FlushAll persist it, DeletePage
    // discards it.
    parked_victims_.emplace(v, std::move(image));
    return;
  }
  Page& page = frames_[*frame];
  std::memcpy(page.Data(), image.get(), kPageSize);
  page.id_ = v;
  page.dirty_.store(true, std::memory_order_relaxed);
  page_table_.Insert(v, *frame);
  frame_prefetched_[*frame].store(0, std::memory_order_relaxed);
  policy_->Restore(v);  // Unpinned and evictable, history intact.
  ++stats_.writebehind_readmits;
}

}  // namespace lruk
