#include "bufferpool/buffer_pool.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <numeric>
#include <optional>
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
  if (shared_dispatcher != nullptr) {
    io_ = shared_dispatcher;
  } else if (options_.io_workers > 0) {
    owned_io_ = std::make_unique<IoDispatcher>(options_.io_workers);
    io_ = owned_io_.get();
  }
  if (io_ == nullptr) read_scratch_ = std::make_unique<char[]>(kPageSize);
  frames_ = std::make_unique<Page[]>(capacity_);
  free_frames_.reserve(capacity_);
  for (FrameId f = 0; f < capacity_; ++f) {
    free_frames_.push_back(static_cast<FrameId>(capacity_ - 1 - f));
  }
}

BufferPool::~BufferPool() {
  // Settle in-flight I/O first (another thread's miss read lands in a
  // frame buffer, a victim write reads its image), then best-effort
  // write-back of surviving dirty pages.
  Quiesce();
  (void)FlushAll();
}

void BufferPool::DiskBatch(std::span<PageIo> batch) {
  disk_->RunBatch(batch);
  if (std::all_of(batch.begin(), batch.end(),
                  [](const PageIo& io) { return io.status.ok(); })) {
    return;  // The common case: nothing to re-issue or count.
  }
  // Further rounds, each one RunBatch of the entries still owed an attempt
  // (`todo`, indices into `batch`, in batch order), so that every entry
  // gets io_max_attempts of its own (a value below 1 counts as 1): a
  // retryable failure (util/retry.h) is re-issued at once, anything else
  // is final. An unissued read is owed its first attempt.
  std::vector<int> attempts(batch.size(), 0);
  std::vector<size_t> todo(batch.size());
  std::iota(todo.begin(), todo.end(), size_t{0});
  auto retry = [&](size_t i) {
    const Status& status = batch[i].status;
    return !status.ok() && IsRetryableError(status.code()) &&
           attempts[i] < options_.io_max_attempts;
  };
  std::vector<PageIo> round;
  bool write_lost = false;  // A write failed for good: no read follows it.
  for (;;) {
    for (size_t i : todo) {
      const PageIo& io = batch[i];
      if (io.status.code() == StatusCode::kAborted) continue;
      ++attempts[i];
      if (io.kind == PageIo::Kind::kWrite && !io.status.ok() && !retry(i)) {
        write_lost = true;
      }
    }
    size_t owed = 0;
    for (size_t i : todo) {
      const bool aborted = batch[i].status.code() == StatusCode::kAborted;
      if (batch[i].kind == PageIo::Kind::kRead && write_lost) continue;
      if (!aborted && !retry(i)) continue;
      if (!aborted) ++stats_.retries;
      todo[owed++] = i;
    }
    todo.resize(owed);
    if (todo.empty()) break;
    round.clear();
    for (size_t i : todo) round.push_back(batch[i]);
    disk_->RunBatch(round);
    for (size_t j = 0; j < todo.size(); ++j) {
      batch[todo[j]].status = std::move(round[j].status);
    }
  }
  for (const PageIo& io : batch) {
    if (io.status.ok() || io.status.code() == StatusCode::kAborted) continue;
    ++(io.kind == PageIo::Kind::kRead ? stats_.read_failures
                                      : stats_.write_failures);
  }
}

Result<FrameId> BufferPool::AcquireFrame(std::vector<PageId>* deferred_writes,
                                         DemandRead* demand,
                                         size_t max_victims) {
  if (!free_frames_.empty()) {
    FrameId f = free_frames_.back();
    free_frames_.pop_back();
    return f;
  }
  // Write-behind needs somewhere off the miss path to run, so a
  // worker-mode pool always writes dirty victims behind, one per call.
  // Inline pools keep the synchronous write-back, so deterministic replay
  // sees a fixed disk-op order.
  if (io_ == nullptr) {
    deferred_writes = nullptr;
  } else {
    max_victims = 1;
  }
  // Pin counts are the ground truth (the policy is never told of pins), so
  // the policy may nominate pinned pages. Nominate victims in escalating
  // batches — EvictBatch defers LRU-K's retained-history insertion, so a
  // skipped pinned nominee costs one Restore instead of a full retention +
  // resurrection round trip through the bounded non-resident budget. Take
  // unpinned nominees that survive the bucket handshake (the first, and
  // after a dirty first the next dirty ones, up to max_victims, and at
  // most one clean one to end the batch), then restore every unused one in
  // reverse pop order: exact for LRU-K, a re-admission for a policy on the
  // default Restore (see the header). Single-threaded there are no pinned
  // nominations in steady fetch/unpin loops, so the first batch of one is
  // a single Evict(), and so is each later nomination of a batch.
  std::vector<PageId>& nominees = nominee_scratch_;  // Latch-guarded.
  std::vector<PageId>& batch = batch_scratch_;
  std::vector<Victim>& victims = victim_scratch_;
  nominees.clear();
  victims.clear();
  bool stop = false;
  size_t want = 1;
  while (!stop && policy_->EvictBatch(want, &batch) > 0) {
    for (PageId victim : batch) {
      nominees.push_back(victim);
      if (stop) continue;  // Unexamined tail of the batch: restore below.
      FrameId f = 0;
      bool found = page_table_.Find(victim, &f);
      LRUK_ASSERT(found, "policy evicted a page the pool does not hold");
      Page& page = frames_[f];
      // Invalidate the bucket FIRST, then read the pin count: any
      // latch-free reader that pinned before our version bump is visible
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
      // writer, and nothing can dirty the page meanwhile.
      const bool dirty = page.is_dirty();
      victims.push_back({victim, f, bucket, nominees.size() - 1, dirty,
                         Status::Ok()});
      stop = !dirty || victims.size() >= max_victims;
    }
    // Every nominee so far was pinned: widen the net. Else nominate one
    // page at a time, so a clean nominee ends the batch with no nominee
    // left unexamined: a policy on the default Restore re-admits what it
    // is handed back, so only pinned nominees may go back.
    want = victims.empty() ? (want < 4 ? 4 : 16) : 1;
  }
  // The write-backs run BEFORE any pool state is dismantled, so a failure
  // rolls its eviction back: the frame still holds the page image, and its
  // page-table entry, pin count (0) and dirty bit are untouched.
  WriteBackVictims(victims, deferred_writes, demand);
  std::optional<FrameId> frame;
  Status failed = Status::Ok();  // The first failed write-back's status.
  std::vector<size_t>& erased = bucket_scratch_;
  erased.clear();
  for (const Victim& v : victims) {
    if (!v.status.ok()) {
      // Rolled back: restored below with the unused nominees. No eviction
      // is counted.
      page_table_.UnlockUnchanged(v.bucket);
      if (failed.ok()) failed = v.status;
      continue;
    }
    erased.push_back(v.bucket);
    nominees[v.nominee] = kInvalidPageId;  // Evicted: not restored.
    Page& page = frames_[v.frame];
    page.id_ = kInvalidPageId;
    page.dirty_.store(false, std::memory_order_relaxed);
    ++stats_.evictions;
    if (v.dirty && deferred_writes == nullptr) ++stats_.dirty_writebacks;
    if (frame.has_value()) {
      free_frames_.push_back(v.frame);
    } else {
      frame = v.frame;
    }
  }
  page_table_.UnlockErased(std::span(erased));
  // Hand back every other nominee in reverse pop order (a failed victim is
  // restored in its exact Evict-undo position).
  for (size_t i = nominees.size(); i-- > 0;) {
    if (nominees[i] != kInvalidPageId) policy_->Restore(nominees[i]);
  }
  if (frame.has_value()) return *frame;
  if (!failed.ok()) return failed;
  return Status::ResourceExhausted(
      "all buffer frames are pinned; cannot evict");
}

void BufferPool::WriteBackVictims(std::span<Victim> victims,
                                  std::vector<PageId>* deferred_writes,
                                  DemandRead* demand) {
  if (deferred_writes != nullptr) {
    // Write-behind: copy the image aside (the "pinned copy") and post the
    // write to the write-behind queue after the latch drops — the frame is
    // reusable immediately and the miss path never waits on it. A failed
    // write re-admits exactly (ReadmitFailedVictimLocked).
    for (const Victim& v : victims) {
      if (!v.dirty) continue;
      auto vw = std::make_shared<VictimWrite>();
      vw->image = std::make_unique<char[]>(kPageSize);
      std::memcpy(vw->image.get(), frames_[v.frame].Data(), kPageSize);
      pending_victim_writes_.emplace(v.page, std::move(vw));
      deferred_writes->push_back(v.page);
    }
    return;
  }
  // The write-backs first, then the demand read if any: a device that runs
  // one operation at a time writes, then reads only if the writes landed,
  // as separate calls would.
  std::vector<PageIo>& batch = io_scratch_;
  batch.clear();
  for (const Victim& v : victims) {
    if (v.dirty) {
      batch.push_back({PageIo::Kind::kWrite, v.page, frames_[v.frame].Data(),
                       Status::Ok()});
    }
  }
  if (batch.empty()) return;
  if (demand != nullptr) {
    batch.push_back({PageIo::Kind::kRead, demand->page, read_scratch_.get(),
                     Status::Ok()});
  }
  DiskBatch(batch);
  bool written = true;
  size_t i = 0;
  for (Victim& v : victims) {
    if (!v.dirty) continue;
    v.status = std::move(batch[i++].status);
    written = written && v.status.ok();
  }
  if (demand != nullptr && written) {
    demand->done = true;
    demand->status = std::move(batch[i].status);
  }
}

void BufferPool::DrainAccessBufferLocked() const {
  // The buffer is mutable and policy_ a shallow-const unique_ptr, so
  // observation paths (stats) can drain through the same helper as
  // mutating ones. Records for since-evicted pages are dropped and counted
  // (access_drops): a record can stall behind another producer's
  // unpublished claim and surface only after its page was evicted, and a
  // latch-free pin + publish + unpin can complete entirely inside another
  // thread's latch hold — so residency at drain time is the only safe
  // filter. Single-threaded nothing is ever dropped: every eviction point
  // drains first, and the ring is exactly FIFO without concurrent
  // producers.
  size_t dropped = 0;
  access_buffer_.Drain(*policy_, /*skip_non_resident=*/true, &dropped);
  if (dropped != 0) {
    stats_.access_drops.fetch_add(dropped, std::memory_order_relaxed);
  }
}

BufferPool::PendingIo* BufferPool::FindPendingLocked(PageId p) {
  for (PendingIo& entry : reads_) {
    if (!entry.done && entry.page == p) return &entry;
  }
  return nullptr;
}

BufferPool::PendingIo* BufferPool::TrackReadLocked(PageId p) {
  auto spare = std::find_if(reads_.begin(), reads_.end(), [](auto& entry) {
    return entry.done && entry.waiters == 0;
  });
  PendingIo& entry = spare != reads_.end() ? *spare : reads_.emplace_back();
  entry.page = p;
  entry.done = false;
  ++tracked_reads_;
  return &entry;
}

void BufferPool::FinishPendingLocked(PendingIo* entry, Status status) {
  entry->status = std::move(status);
  entry->done = true;
  --tracked_reads_;
  if (entry->waiters > 0) entry->cv.notify_all();
  quiesce_cv_.notify_all();
}

Status BufferPool::AwaitReadLocked(std::unique_lock<std::mutex>& guard,
                                   PendingIo* entry) {
  // A waiter keeps the record from reuse until it has read the outcome.
  ++entry->waiters;
  entry->cv.wait(guard, [&] { return entry->done; });
  --entry->waiters;
  return entry->status;
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
    if (PendingIo* entry = FindPendingLocked(p)) {
      (void)AwaitReadLocked(guard, entry);
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
  quiesce_cv_.wait(guard, [&] {
    return tracked_reads_ == 0 && pending_victim_writes_.empty();
  });
}

void BufferPool::Quiesce() {
  auto guard = Lock();
  QuiesceLocked(guard);
}

Page* BufferPool::TryOptimisticHit(PageId p, AccessType type, bool refix) {
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
  stats_.hits.fetch_add(1, std::memory_order_relaxed);
  stats_.optimistic_hits.fetch_add(1, std::memory_order_relaxed);
  // Publish the reference after the pin, never under any latch. The pin
  // keeps p resident until at least our own unpin; a record that outlives
  // the page's residency anyway (late drain) is dropped by the
  // skip-non-resident drain. A correlated re-fix publishes nothing.
  if (refix) {
    stats_.correlated_refs.fetch_add(1, std::memory_order_relaxed);
  } else if (!access_buffer_.TryPush({p, /*process=*/0, type})) {
    // Stripe full: drain and apply directly under the latch, preserving
    // FIFO order exactly as the latched hit branch in FixPage does.
    auto guard = Lock();
    DrainAccessBufferLocked();
    policy_->RecordAccess(p, type);
  }
  return &page;
}

void BufferPool::NoteFix(PageId p) const { last_fix = {fix_key_, p}; }

Result<Page*> BufferPool::FetchPage(PageId p, AccessType type) {
  const bool refix = last_fix.pool == fix_key_ && last_fix.page == p;
  auto page = FixPage(p, type, refix);
  if (page.ok()) NoteFix(p);
  return page;
}

Result<Page*> BufferPool::FixPage(PageId p, AccessType type, bool refix) {
  if (Page* page = TryOptimisticHit(p, type, refix)) return page;
  // A miss, or a hit whose probe met a concurrent mutation: the latched
  // path, authoritative for both.
  auto guard = Lock();
  // Whether this fetch has already been counted (a coalesced waiter counts
  // its miss when it starts waiting, then resolves through the hit branch
  // or the primary path below without recounting; so does a miss that
  // waits out a flush's pins and starts over).
  bool counted = false;
  // The primary miss path's frame, deferred victim writes and its read
  // (which, in inline mode, a dirty victim's write-back may carry).
  FrameId frame = 0;
  std::vector<PageId> deferred;
  DemandRead demand;
  demand.page = p;
  for (;;) {
    FrameId f = 0;
    if (page_table_.Find(p, &f)) {
      Page& page = frames_[f];
      if (!counted) ++stats_.hits;
      // Only a hit collapses: a coalesced waiter (counted) was a miss.
      const bool correlated = refix && !counted;
      if (correlated) ++stats_.correlated_refs;
      if (!correlated) {
        // Under the latch, after any latch-free hits still in the ring, as
        // the ring-full path in TryOptimisticHit does.
        DrainAccessBufferLocked();
        policy_->RecordAccess(p, type);
      }
      page.pin_count_.fetch_add(1);
      if (type == AccessType::kWrite) {
        page.dirty_.store(true, std::memory_order_release);
      }
      return &page;
    }
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
      page.dirty_.store(true, std::memory_order_relaxed);  // Any fetch type.
      page_table_.Insert(p, *readmit);
      policy_->Restore(p);
      policy_->RecordAccess(p, type);
      ++stats_.writebehind_readmits;
      guard.unlock();
      LaunchDeferredVictimWrites(deferred);
      return &page;
    }
    // The per-page request tracker: a read of p already in flight
    // (another thread's miss) absorbs this miss — wait for it instead of
    // issuing a second physical read.
    if (PendingIo* entry = FindPendingLocked(p)) {
      if (!counted) {
        ++stats_.misses;
        ++stats_.coalesced_reads;
        counted = true;
      }
      Status read = AwaitReadLocked(guard, entry);
      if (!read.ok()) {
        // The coalesced read failed: every waiter reports the same
        // status the primary saw (the failure was counted once, by the
        // primary).
        return read;
      }
      // Success: the page should be resident now (re-loop to the hit
      // branch). An admission already evicted again falls through to a
      // fresh primary miss instead.
      continue;
    }

    if (!counted) ++stats_.misses;
    counted = true;
    // Deferred references precede this fault in the reference string;
    // apply them before the policy sees the admission (and before any
    // eviction decision, which must act on a fully drained view).
    DrainAccessBufferLocked();
    policy_->PrepareAdmit(p);
    auto acquired =
        AcquireFrame(&deferred, io_ == nullptr ? &demand : nullptr);
    if (acquired.ok()) {
      frame = *acquired;
      break;
    }
    // Nothing deferred on failure. After waiting out a flush, start over:
    // another thread may have admitted p meanwhile.
    if (!AwaitFlushLocked(guard, acquired.status())) return acquired.status();
  }

  Page& page = frames_[frame];
  Status read;
  PendingIo* entry = nullptr;
  if (demand.done) {
    // A dirty victim's write-back carried the read, under the latch.
    read = demand.status;
    if (read.ok()) std::memcpy(page.Data(), read_scratch_.get(), kPageSize);
  } else {
    // Register in the tracker, release the latch, and read on this
    // thread: concurrent misses on p coalesce onto this entry, and the
    // rest of the pool stays serviceable during the I/O. The frame is
    // reserved (neither free nor mapped), so nothing else can claim it.
    // The deferred victim write (if any) is posted before the demand read
    // is issued, so the write-back overlaps the read instead of preceding
    // it — the point of write-behind.
    entry = TrackReadLocked(p);
    PageIo io[] = {{PageIo::Kind::kRead, p, page.Data(), Status::Ok()}};
    guard.unlock();
    LaunchDeferredVictimWrites(deferred);
    DiskBatch(io);
    guard.lock();
    CountLatchAcquire();
    read = std::move(io[0].status);
  }
  if (read.ok() && admitting_.contains(p)) {
    read = Status::NotFound("page deleted and its id reallocated");
  }
  if (entry != nullptr) FinishPendingLocked(entry, read);
  if (!read.ok()) {
    // The page was never admitted: the policy has no entry for p, the
    // page table is untouched, and the frame (legitimately freed by a
    // completed eviction, or taken from the free list) goes back unused.
    free_frames_.push_back(frame);
    return read;
  }
  page.id_ = p;
  // fetch_add, not a store: a stale latch-free reader may be holding a
  // transient speculative +1 on this frame (it will undo it after failing
  // validation), and a blind store would erase that.
  page.pin_count_.fetch_add(1);
  page.dirty_.store(type == AccessType::kWrite, std::memory_order_relaxed);
  page_table_.Insert(p, frame);
  policy_->Admit(p, type);
  return &page;
}

Result<Page*> BufferPool::NewPage() {
  std::vector<PageId> deferred;
  auto guard = Lock();
  auto allocated = disk_->AllocatePage();
  if (!allocated.ok()) return allocated.status();
  PageId p = *allocated;
  admitting_.insert(p);
  auto page = AdmitNewPageLocked(guard, p, &deferred);
  admitting_.erase(p);
  if (!page.ok()) (void)disk_->DeallocatePage(p);
  guard.unlock();
  LaunchDeferredVictimWrites(deferred);
  if (page.ok()) NoteFix(p);
  return page;
}

Result<Page*> BufferPool::AdmitNewPage(PageId p) {
  std::vector<PageId> deferred;
  auto guard = Lock();
  admitting_.insert(p);
  auto page = AdmitNewPageLocked(guard, p, &deferred);
  admitting_.erase(p);
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
    // Stale reads of a reallocated id (a fetch of the deleted page) may be
    // in flight or start while this waits: the caller's claim
    // (admitting_) keeps them from admitting it.
    FencePageLocked(guard, p);
    if (page_table_.contains(p)) {
      return Status::AlreadyExists("admit of resident page " +
                                   std::to_string(p));
    }
    DrainAccessBufferLocked();  // As on the miss path: admit/evict on a
                                // fully drained view.
    policy_->PrepareAdmit(p);
    // An inline pool's allocation writes its dirty victims back in
    // batches (see AcquireFrame); a worker-mode pool writes them behind.
    auto acquired =
        AcquireFrame(deferred_writes, /*demand=*/nullptr,
                     /*max_victims=*/disk_->MaxConcurrentIo());
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
  policy_->Admit(p, AccessType::kWrite);
  return &page;
}

Status BufferPool::UnpinPage(PageId p, bool dirty) {
  PageTable::Snapshot snap;
  PageTable::ProbeFail why = PageTable::ProbeFail::kNone;
  if (page_table_.OptimisticFind(p, &snap, &why)) {
    // The caller's own pin (its API obligation) keeps p resident, and a
    // resident page never changes frames — so a consistent probe gives the
    // right frame even if the bucket shifts afterwards. Order matters: set
    // dirty BEFORE the decrement, so a mutator that sees pin == 0 under
    // its bucket lock also sees the dirty bit.
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
    // cur dropped to 0: unpin of an unpinned page (or a misuse race) — let
    // the latched path produce the authoritative error. (Not an attributed
    // fallback: the probe itself succeeded.)
  } else {
    // Probe failed (absent or unstable): latched path for the
    // authoritative NotFound / InvalidArgument.
    CountOptimisticFallback(why);
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
  page.pin_count_.fetch_sub(1);
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
      PageIo write[] = {
          {PageIo::Kind::kWrite, p, parked->second.get(), Status::Ok()}};
      DiskBatch(write);
      LRUK_RETURN_IF_ERROR(write[0].status);
      parked_victims_.erase(p);
      return Status::Ok();
    }
  }
  FrameId f = 0;
  if (!page_table_.Find(p, &f)) {
    return Status::NotFound("flush of non-resident page " + std::to_string(p));
  }
  // An explicit flush may run while the caller — who requested it — still
  // writes the pinned page; coordinating that is the caller's job.
  const std::pair<PageId, FrameId> target[] = {{p, f}};
  return FlushFramesLocked(guard, target);
}

Status BufferPool::FlushAll() {
  auto guard = Lock();
  // Settle in-flight I/O first: miss reads are landing in frame buffers
  // and queued victim writes may still change the picture. Wait
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
    PageIo write[] = {
        {PageIo::Kind::kWrite, it->first, it->second.get(), Status::Ok()}};
    DiskBatch(write);
    if (write[0].status.ok()) {
      it = parked_victims_.erase(it);
    } else {
      if (parked_error.ok()) parked_error = write[0].status;
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
  std::vector<PageIo> writes;
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
    page.pin_count_.fetch_add(1);
    flushing_.insert(p);
    writes.push_back({PageIo::Kind::kWrite, p, page.Data(), Status::Ok()});
    frames.push_back(f);
  }
  if (writes.empty()) return Status::Ok();
  guard.unlock();
  DiskBatch(writes);
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
      if (first_error.ok()) first_error = writes[i].status;
    }
    page.pin_count_.fetch_sub(1);
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
  // Fence in-flight reads of p: a miss read already issued must finish
  // (and admit its page) before the delete dismantles it — otherwise its
  // completion would resurrect a page the disk no longer holds. No new
  // read of p can start while we hold the latch.
  FencePageLocked(guard, p);
  // Any buffered reference to p must reach the policy before Remove()
  // forgets the page (a post-Remove RecordAccess would fault); a record
  // that drains after the delete is dropped by the skip-non-resident drain.
  DrainAccessBufferLocked();
  FrameId f = 0;
  bool resident = page_table_.Find(p, &f);
  size_t bucket = 0;
  if (resident) {
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
    if (resident) page_table_.UnlockUnchanged(bucket);
    return deallocated;
  }
  // A parked image of a deleted page is intentionally discarded: its data
  // has no home on disk anymore.
  parked_victims_.erase(p);
  if (resident) {
    Page& page = frames_[f];
    policy_->Remove(p);
    free_frames_.push_back(f);
    page.id_ = kInvalidPageId;
    page.dirty_.store(false, std::memory_order_relaxed);
    page_table_.UnlockErased(bucket);
  }
  return Status::Ok();
}

void BufferPool::LaunchDeferredVictimWrites(
    const std::vector<PageId>& victims) {
  for (PageId v : victims) {
    if (io_->TryPost(
            [this, v] { ExecuteVictimWrite(v, /*foreground=*/false); })) {
      continue;
    }
    // Queue full: the image must still reach disk (or the page be
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
  // The write runs with the latch released (a write-behind writer, or the
  // submitting thread when the queue refused the post). The map entry
  // keeps every reader of p waiting: a demand fetch of p, a fence — none
  // can touch p's stale disk image while we are here.
  guard.unlock();
  PageIo write[] = {{PageIo::Kind::kWrite, v, vw->image.get(), Status::Ok()}};
  DiskBatch(write);
  guard.lock();
  CountLatchAcquire();
  Status written = std::move(write[0].status);
  if (written.ok()) {
    if (foreground) {
      ++stats_.dirty_writebacks;
    } else {
      ++stats_.writebehind_writes;
    }
  } else {
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
  policy_->Restore(v);  // Unpinned and evictable, history intact.
  ++stats_.writebehind_readmits;
}

}  // namespace lruk
