// The buffer pool manager: a fixed set of frames caching disk pages, with
// the replacement decision delegated to any ReplacementPolicy — this is
// the substrate in which LRU-K is meant to live (the paper's prototype was
// built inside the Huron database's buffer manager).
//
// Pin protocol: FetchPage/NewPage return the page pinned; callers must
// balance every fetch with UnpinPage (or use PageGuard). Pinned pages are
// never victims: the frames' atomic pin counts are the ground truth, and
// the policy is never told of pins. A fetch when every frame is pinned
// fails with RESOURCE_EXHAUSTED (pins a flush holds are waited out
// instead).
//
// Thread safety: all pool MUTATIONS (and through them the policy) are
// serialized by one internal latch — coarse-grained by design, since the
// replacement *decision* is the subject of this library. Warm hits and
// unpins take no latch (below); a clean miss's read (a FetchPages run's
// reads, as one batch) and FlushPage/FlushAll's writes run with the latch
// released: see the thread-safety note in storage/disk_manager.h.
// Page *contents* are accessed outside the latch under the pin protocol: a
// pinned page cannot be evicted, and Page pointers stay stable for the
// pool's lifetime, so concurrent readers are safe; concurrent writers to
// the same page must coordinate among themselves (as with per-page latches
// in a real DBMS). For multi-core scaling, ShardedBufferPool composes
// several of these pools behind the same PoolInterface.
//
// Hit protocol (DESIGN.md §9 "Page table & pin protocol"): a hit probes
// the version-stamped PageTable without any lock, speculatively
// fetch_adds the frame's atomic pin count, re-validates the bucket
// version, publishes the reference to the AccessBuffer, and goes. Any
// instability falls back to the latched path, which re-checks
// authoritatively; an unpin is a CAS on the pin count. The cross-cutting
// invariant every mutation path upholds: no frame is evicted,
// flushed-while-unpinned, deleted, or reused for another page without
// first bumping its page-table bucket version (PageTable::LockBucket) and
// THEN re-checking the pin count — the seq_cst store-load handshake that
// guarantees a latch-free reader either fails validation or is seen by the
// mutator as pinned, never neither.
//
// References reach the policy when the AccessBuffer (64 records x 8
// stripes) is drained under the latch, which every admission, eviction,
// delete and stats() does first, so single-threaded the policy sees the
// reference string in the order the pages were fixed. Concurrently, a
// reference may be applied at a later drain, and one whose page was
// evicted before it is dropped and counted (access_drops). The policy
// stamps a reference when it is drained, not when the hit ran: with a
// wall-clock CRP (LruKOptions::clock set) the lag would add real time to
// interarrival gaps. The pools here run LRU-K on its logical clock.
//
// Correlated re-fix (DESIGN.md §4, the paper's §2.1.1): a FetchPage of the
// page the calling thread's previous fix on this pool (FetchPage, NewPage
// or AdmitNewPage) also named is one reference with that fix, not a new
// one. It counts as a hit and pins and dirties as usual, but it reaches
// neither RecordAccess nor the AccessBuffer; it is counted in
// `correlated_refs`. The only state is one thread-local (pool, page)
// register. A re-fix that misses is admitted as any miss is.

#ifndef LRUK_BUFFERPOOL_BUFFER_POOL_H_
#define LRUK_BUFFERPOOL_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bufferpool/page.h"
#include "bufferpool/page_table.h"
#include "bufferpool/pool_interface.h"
#include "core/access_buffer.h"
#include "core/replacement_policy.h"
#include "io/io_dispatcher.h"
#include "storage/disk_manager.h"
#include "util/status.h"

namespace lruk {

// The options a caller sets, shared by BufferPool and (per shard)
// ShardedBufferPool. Everything else about the pool is fixed: the
// write-behind queue's depth (io/io_dispatcher.h), the access buffer's
// size, and the latch-free hit path, which every pool takes.
struct BufferPoolOptions {
  // Attempts at a disk read or write that fails with a transient error
  // (kIoError) before the error surfaces to the caller, the first
  // included; 1 (the default) is no retry. Every pool I/O goes through one
  // retry loop (DiskBatch): a retry is re-issued at once, as a further
  // DiskManager::RunBatch batch of the retryable failures. FlushPage/
  // FlushAll writes, a clean miss's read (free frame or clean victim) and
  // write-behind victim writes retry with the pool latch released.
  // Synchronous eviction write-backs and the writes of parked victim
  // images retry under the latch; so do a dirty miss's paired write-back
  // and read and an allocation's batch of victim write-backs, each
  // failed write on its own (see AcquireFrame).
  int io_max_attempts = 1;

  // Writer threads of the pool's write-behind queue (IoDispatcher,
  // DESIGN.md §8 "The dispatcher"). In either mode every miss reads on
  // the fetching thread, and concurrent misses on a page share one read.
  // 0 (the default) = inline mode, and no queue: a single thread's
  // op sequence is fixed by its seed; a clean miss reads with the latch
  // released, a miss with a dirty victim writes it back and reads as one
  // device batch under the latch, and an allocation with a dirty victim
  // writes back up to MaxConcurrentIo() dirty victims as one batch under
  // the latch (see AcquireFrame). > 0 = worker mode: every dirty victim is
  // written behind — its image copied aside, its write posted on the
  // queue and the new page admitted at once (writebehind_writes; a full
  // queue falls back to the synchronous write, dirty_writebacks). A
  // failed write-behind re-admits the page dirty, exactly, via
  // ReplacementPolicy::Restore (writebehind_readmits).
  size_t io_workers = 0;
};

class BufferPool final : public PoolInterface {
 public:
  // `disk` must outlive the pool. The pool owns the policy. A worker-mode
  // pool posts its victim writes to `shared_dispatcher` if given (it must
  // outlive the pool and have options.io_workers writers: the shards of a
  // ShardedBufferPool share one), else to a dispatcher of its own; an
  // inline pool has none.
  BufferPool(size_t capacity, DiskManager* disk,
             std::unique_ptr<ReplacementPolicy> policy,
             BufferPoolOptions options = {},
             IoDispatcher* shared_dispatcher = nullptr);
  ~BufferPool() override;

  Result<Page*> FetchPage(PageId p,
                          AccessType type = AccessType::kRead) override;

  // Fixes a run of distinct pages as consecutive FetchPage calls from one
  // thread would (DESIGN.md §8 "Runs"), but reads the run's misses as one
  // device batch. Each page is probed latch-free first; under one latch
  // hold the run's other hits are pinned and each miss is claimed in page
  // order (FetchPage's own claim step: coalescing, victim-write and flush
  // waits, parked re-admits, PrepareAdmit and AcquireFrame with its
  // dirty-victim pairing); the claimed reads go to the device as one
  // DiskBatch with the latch released, and one more latch hold installs
  // them. Single-threaded the policy sees every hit's RecordAccess, then
  // each miss's PrepareAdmit and eviction in page order, then each miss's
  // Admit in page order. A claim never waits for other I/O while the run
  // holds claimed reads (or write-behind victim writes) it has not
  // issued: it issues and installs them first, then waits, so two runs
  // over the same pages in opposite orders cannot deadlock. On any
  // failure every page the run pinned is unpinned (pages whose reads
  // landed stay admitted) and the first failure in page order is
  // returned; so with too few unpinned frames for the whole run it
  // returns RESOURCE_EXHAUSTED and holds nothing.
  Status FetchPages(std::span<const PageId> pages, std::span<Page*> out,
                    AccessType type = AccessType::kRead) override;

  Result<Page*> NewPage() override;

  // Admits the already-allocated disk page `p` as a fresh resident page:
  // pinned, zero-filled, and dirty, exactly as NewPage leaves it. Used by
  // ShardedBufferPool, whose page-id allocation happens at the pool level
  // before the owning shard is known. Precondition: `p` is allocated on
  // disk and not resident here.
  Result<Page*> AdmitNewPage(PageId p);

  Status UnpinPage(PageId p, bool dirty) override;
  // Both write without the pool latch (DESIGN.md §7 "Failed FlushPage/
  // FlushAll"): each dirty page is pinned and its dirty bit cleared under
  // the latch, the pages go to the device as one DiskManager::RunBatch
  // batch, and a failed write re-sets the bit. A flush's pins are never a
  // caller's: a miss that finds every frame pinned while a flush holds
  // pins waits for it, and DeletePage/FlushPage of a page under flush wait
  // the flush out.
  Status FlushPage(PageId p) override;
  Status FlushAll() override;
  Status DeletePage(PageId p) override;

  size_t capacity() const override { return capacity_; }
  size_t ResidentCount() const override {
    auto guard = Lock();
    return page_table_.size();
  }
  bool IsResident(PageId p) const override {
    auto guard = Lock();
    return page_table_.contains(p);
  }
  BufferPoolStats stats() const override {
    // Observation points drain so the policy's view is current (and so a
    // caller inspecting the policy right after sees no pending records).
    auto guard = Lock();
    DrainAccessBufferLocked();
    return stats_.ToStats();
  }
  // Lock-free counter snapshot (never blocks or is blocked by the hit
  // path; pending access-buffer records stay pending).
  BufferPoolStats StatsSnapshot() const override { return stats_.ToStats(); }
  void ResetStats() override {
    auto guard = Lock();
    DrainAccessBufferLocked();
    stats_.Reset();
  }
  ReplacementPolicy& policy() { return *policy_; }
  // Meta-policy counters (adaptive expert regret/switches); a default
  // snapshot (`adaptive == false`) for plain policies. Drains pending
  // access records first so the regret window is current.
  MetaPolicyStats MetaStats() const {
    auto guard = Lock();
    DrainAccessBufferLocked();
    return policy_->GetMetaStats();
  }
  DiskManager& disk() { return *disk_; }
  const BufferPoolOptions& options() const { return options_; }
  // Drain/push counters for the latch-free hits' AccessBuffer.
  AccessBufferStats access_buffer_stats() const {
    auto guard = Lock();
    return access_buffer_.stats();
  }

  // --- In-flight I/O ---

  // The write-behind queue this pool posts victim writes to; null for an
  // inline pool (io_workers = 0).
  IoDispatcher* io_dispatcher() { return io_; }
  // Blocks until every in-flight miss read of this pool (on any thread)
  // and every write-behind victim write it posted has completed. FlushAll
  // fences through this; DeletePage fences per page.
  void Quiesce();
  // In-flight tracked miss reads; 0 after Quiesce().
  size_t PendingIoCount() const {
    auto guard = Lock();
    return tracked_reads_;
  }
  // Frames on the free list (capacity == resident + pending + free).
  size_t FreeFrameCount() const {
    auto guard = Lock();
    return free_frames_.size();
  }
  // In-flight write-behind victim writes; 0 after Quiesce().
  size_t PendingVictimWriteCount() const {
    auto guard = Lock();
    return pending_victim_writes_.size();
  }
  // Evicted pages whose write-behind failed AND whose re-admission found
  // no frame: their images are parked (no data loss) until a fetch
  // re-admits them, a flush persists them, or a delete drops them.
  size_t ParkedVictimCount() const {
    auto guard = Lock();
    return parked_victims_.size();
  }

 private:
  // Shares its fix-register key with every shard (see fix_key_).
  friend class ShardedBufferPool;

  // One tracked miss read of `page`, in flight until `done`. Waiters
  // count themselves in `waiters` and sleep on `cv` with the pool latch;
  // the issuer sets `status` and `done` and notifies. A done record with
  // no waiters is reused for the next read (all latch-guarded), so a
  // steady-state miss allocates nothing.
  struct PendingIo {
    PageId page = kInvalidPageId;
    Status status;
    bool done = true;
    int waiters = 0;
    std::condition_variable cv;
  };

  // The pool's counters (LRUK_POOL_COUNTERS) as relaxed atomics, so the
  // latch-free hit path can count without the latch and StatsSnapshot can
  // read without it. Individually exact; a snapshot is not an atomic cut
  // across fields.
  struct AtomicPoolStats {
#define LRUK_POOL_COUNTER_ATOMIC(name) std::atomic<uint64_t> name{0};
    LRUK_POOL_COUNTERS(LRUK_POOL_COUNTER_ATOMIC)
#undef LRUK_POOL_COUNTER_ATOMIC

    BufferPoolStats ToStats() const {
      BufferPoolStats s;
#define LRUK_POOL_COUNTER_LOAD(name) \
  s.name = name.load(std::memory_order_relaxed);
      LRUK_POOL_COUNTERS(LRUK_POOL_COUNTER_LOAD)
#undef LRUK_POOL_COUNTER_LOAD
      return s;
    }
    void Reset() {
#define LRUK_POOL_COUNTER_RESET(name) \
  name.store(0, std::memory_order_relaxed);
      LRUK_POOL_COUNTERS(LRUK_POOL_COUNTER_RESET)
#undef LRUK_POOL_COUNTER_RESET
    }
  };

  // Acquires the pool latch, counting the acquisition (the
  // `latch_acquires` proxy asserted by the zero-mutex-on-hit test).
  // Condition-variable re-acquisitions inside waits are not counted;
  // explicit guard.lock() re-acquisitions count via CountLatchAcquire.
  std::unique_lock<std::mutex> Lock() const {
    std::unique_lock<std::mutex> guard(latch_);
    stats_.latch_acquires.fetch_add(1, std::memory_order_relaxed);
    return guard;
  }
  void CountLatchAcquire() const {
    stats_.latch_acquires.fetch_add(1, std::memory_order_relaxed);
  }

  // Counts one latch-free attempt that fell back to the latched path,
  // attributed to its cause — optimistic_fallbacks stays the exact sum
  // of the three attributed counters.
  void CountOptimisticFallback(PageTable::ProbeFail why) const {
    if (why == PageTable::ProbeFail::kNone) return;
    stats_.optimistic_fallbacks.fetch_add(1, std::memory_order_relaxed);
    switch (why) {
      case PageTable::ProbeFail::kMiss:
        stats_.fallback_probe_miss.fetch_add(1, std::memory_order_relaxed);
        break;
      case PageTable::ProbeFail::kVersionConflict:
        stats_.fallback_version_conflict.fetch_add(1,
                                                   std::memory_order_relaxed);
        break;
      case PageTable::ProbeFail::kDisplacementBound:
        stats_.fallback_resize.fetch_add(1, std::memory_order_relaxed);
        break;
      case PageTable::ProbeFail::kNone:
        break;
    }
  }

  // One in-flight write-behind victim write: the evicted page's image,
  // copied out of the frame before the frame was reused ("pinned copy").
  // Waiters (a re-fetch of the page, a fence) sleep on `cv` with the pool
  // latch; the writer marks `done`, erases the map entry and notifies.
  struct VictimWrite {
    std::unique_ptr<char[]> image;
    Status status;
    bool done = false;
    std::condition_variable cv;
  };

  // A miss's demand read, offered to AcquireFrame by an inline-mode pool
  // so that a dirty victim's write-back can carry it (see
  // WriteBackVictims). `done` once it did; `status` is then the read's,
  // and on success the page's image is in read_scratch_.
  struct DemandRead {
    PageId page = kInvalidPageId;
    bool done = false;
    Status status;
  };

  // One page of a fix (FetchPage fixes one, FetchPages a run), from its
  // claim step (ClaimLocked) to its install step (ReadAndInstallLocked).
  struct FixSlot {
    PageId page = kInvalidPageId;
    // A correlated re-fix: a hit reaches no policy (a miss is admitted).
    bool refix = false;
    // Its hit or miss is counted (a coalesced waiter counts its miss when
    // it starts waiting; a claim that waits and starts over counts once).
    bool counted = false;
    // The page, pinned, once fixed.
    Page* fixed = nullptr;
    // A claimed miss: the reserved frame (neither free nor mapped) and the
    // page's tracked read, which ReadAndInstallLocked issues unless a dirty
    // victim's write-back carried it (`read_done`, with its status in
    // `read` and the image already in the frame).
    bool claimed = false;
    FrameId frame = 0;
    PendingIo* entry = nullptr;
    bool read_done = false;
    Status read;
  };
  // What a claim step left its slot in.
  enum class Claim {
    kPinned,   // A hit, or a parked image re-admitted: `fixed` is set.
    kClaimed,  // A miss holding its frame and its tracked read.
    kBlocked,  // It must wait for other I/O, which the caller forbade.
  };

  // RunBatch under options_.io_max_attempts per entry, with the pool's
  // failure/retry accounting (every pool read and write goes through it;
  // a batch of one runs on the calling thread):
  // each further round is one more RunBatch call with the entries the
  // last left with a retryable error and attempts to spare (each such
  // re-issue counts in `retries`) and the reads it did not issue
  // (kAborted). Once a write has failed for good, no read is issued again.
  // Every entry that ends in an error other than kAborted counts in
  // read_failures or write_failures. The caller may hold the latch or not.
  void DiskBatch(std::span<PageIo> batch);
  // The flush body FlushPage and FlushAll share. Under the latch, pins
  // each dirty page of `targets` (resident (page, frame) pairs under no
  // other flush) and clears its dirty bit; writes them all with the latch
  // released (DiskBatch); re-latched, unpins them and re-sets the dirty
  // bit of each page whose write failed. Returns the first failure in
  // target order. Caller holds `guard`.
  Status FlushFramesLocked(
      std::unique_lock<std::mutex>& guard,
      std::span<const std::pair<PageId, FrameId>> targets);
  // Whether `failed` is an AcquireFrame refusal that a flush's pins may
  // cause: every frame pinned while a flush holds pins.
  bool FlushRefusalLocked(const Status& failed) const;
  // If FlushRefusalLocked(failed), waits for a flush to finish and returns
  // true: the caller starts over, since the latch was released. Caller
  // holds `guard`.
  bool AwaitFlushLocked(std::unique_lock<std::mutex>& guard,
                        const Status& failed);
  // One victim AcquireFrame has taken: its bucket is locked and its pin
  // count 0, so the frame is the pool's alone until the bucket is
  // released. `status` is its write-back's (Ok for a clean victim).
  struct Victim {
    PageId page = kInvalidPageId;
    FrameId frame = 0;
    size_t bucket = 0;
    size_t nominee = 0;  // Its index in nominee_scratch_.
    bool dirty = false;
    Status status;
  };

  // Finds a frame for a new resident page: the free list first, then a
  // policy eviction (with dirty write-back). The policy is never told of
  // pins, so it may nominate pinned pages: they are skipped under the
  // bucket handshake and handed back with Restore. That is exact for
  // LRU-K (and the adaptive policy's LRU-K nominator); a policy on the
  // default Restore re-admits the page instead, which moves it as an
  // admission would (an LRU page becomes the most recent, say).
  //
  // Allocation batches (DESIGN.md §8): with `max_victims` > 1 (an inline
  // pool's NewPage/AdmitNewPage passes disk_->MaxConcurrentIo()), a dirty
  // first victim is followed by the policy's next victims while they are
  // dirty, up to `max_victims` in all; a clean one ends the batch and is
  // evicted too. After the first victim it nominates one page at a time,
  // so no nominee is left unexamined and only pinned ones are handed
  // back. Their write-backs go to the device as one DiskBatch, one
  // freed frame is returned and the others go on the free list. A victim
  // whose write-back fails is rolled back exactly (frame image, dirty bit,
  // page-table entry, policy_->Restore), but for what an LRU-K history
  // budget dropped when a later nomination settled its retention
  // (DESIGN.md §7); the other evictions stand, and
  // the call fails, with the first failed write's status, only if no
  // victim was freed. With 1 (every other caller, every worker-mode pool)
  // it takes one victim.
  //
  // A synchronous write-back carries `demand` when given (see
  // WriteBackVictims); if its read fails, the eviction stands and the
  // frame is returned all the same.
  //
  // Write-behind: when `deferred_writes` is non-null and the pool runs
  // in worker mode, a dirty victim's image is copied into a
  // VictimWrite entry, the victim's id is appended to `deferred_writes`,
  // and the frame is returned immediately — the caller MUST pass the list
  // to LaunchDeferredVictimWrites after releasing the latch. A null
  // `deferred_writes` forces the synchronous write-back (used on failure
  // paths that must not cascade).
  Result<FrameId> AcquireFrame(std::vector<PageId>* deferred_writes,
                               DemandRead* demand = nullptr,
                               size_t max_victims = 1);
  // AcquireFrame's write step for `victims` (each held exclusively), which
  // sets each one's status: a write-behind image copy onto
  // `deferred_writes` when non-null (worker mode takes one victim), else
  // the dirty victims' synchronous write-backs as one DiskBatch, under the
  // latch. With `demand`, the demand read rides in the same batch, after
  // the writes, so a device that overlaps operations serves the pair in
  // one service time, and the read lands in read_scratch_: the frame keeps
  // the victim's image until the write has landed. `demand` is done only
  // if every write landed. A batch whose RunBatch finds every runner busy
  // (a concurrent FlushAll, say) runs in order on the calling thread: its
  // k writes then take as long under the latch as k allocations' single
  // write-backs would.
  void WriteBackVictims(std::span<Victim> victims,
                        std::vector<PageId>* deferred_writes,
                        DemandRead* demand);
  // NewPage/AdmitNewPage body; caller holds `guard`.
  Result<Page*> AdmitNewPageLocked(std::unique_lock<std::mutex>& guard,
                                   PageId p,
                                   std::vector<PageId>* deferred_writes);
  // Records `p` as the calling thread's latest fix on this pool (every
  // successful FetchPage, NewPage and AdmitNewPage calls it).
  void NoteFix(PageId p) const;
  // Whether a fix of `p` by the calling thread is a correlated re-fix.
  bool IsRefix(PageId p) const;
  // FetchPage body. `refix`: the fetch is a correlated re-fix, so a hit
  // does not reach the policy (a miss is admitted as usual).
  Result<Page*> FixPage(PageId p, AccessType type, bool refix);
  // The claim step of `slot`'s page, under the latch: a hit is pinned; a
  // parked image is re-admitted and pinned; a page whose victim write or
  // read is in flight, or whose AcquireFrame meets a flush's pins, waits
  // and starts over, unless `may_wait` is false: then it returns kBlocked
  // before waiting or counting. Otherwise it is a miss: counted, drained,
  // PrepareAdmit, AcquireFrame (dirty victims written behind onto
  // `deferred` in worker mode, or with the read paired under the latch in
  // inline mode, the image then copied out of read_scratch_ at once), and
  // its read tracked, so concurrent misses of the page coalesce onto it.
  // An error leaves nothing held by the slot.
  Result<Claim> ClaimLocked(std::unique_lock<std::mutex>& guard,
                            FixSlot& slot, AccessType type,
                            std::vector<PageId>* deferred, bool may_wait);
  // The read and install steps of every claimed slot in `slots`: posts
  // `deferred` and reads the claimed pages not yet read as one DiskBatch,
  // with the latch released (using `reads`, one entry per slot, as the
  // batch), then, re-latched, in slot order completes each tracked read
  // and admits and pins its page, or returns its frame to the free list
  // if the read failed. Returns the first failure. Caller holds `guard`.
  Status ReadAndInstallLocked(std::unique_lock<std::mutex>& guard,
                              std::span<FixSlot> slots, AccessType type,
                              std::vector<PageId>* deferred,
                              std::span<PageIo> reads);
  // Applies every buffered access record to the policy, dropping records
  // whose page was evicted since (see AccessBuffer::Drain). Caller holds
  // the latch. Declared const because observation paths (stats) drain too;
  // the buffer is mutable and the policy is behind a shallow-const
  // pointer.
  void DrainAccessBufferLocked() const;
  // The latch-free hit: optimistic probe, speculative pin, validate,
  // count, publish. Returns the pinned page, or null on any miss or
  // instability (the caller falls back to the latched path). Never
  // acquires the latch except to drain a full access-buffer stripe. A
  // `refix` hit publishes nothing.
  Page* TryOptimisticHit(PageId p, AccessType type, bool refix);

  // --- The per-page read tracker (all: caller holds the latch) ---
  // The in-flight read of `p`, or null.
  PendingIo* FindPendingLocked(PageId p);
  // Starts tracking a read of `p`, which has none in flight.
  PendingIo* TrackReadLocked(PageId p);
  // Completes a tracked read: publishes status, wakes waiters and Quiesce.
  void FinishPendingLocked(PendingIo* entry, Status status);
  // Waits (releasing `guard`) for `entry` to complete. Returns its status.
  Status AwaitReadLocked(std::unique_lock<std::mutex>& guard,
                         PendingIo* entry);
  // Blocks until no read, victim write or flush of `p` is in flight
  // (DeletePage's fence). Caller holds `guard`.
  void FencePageLocked(std::unique_lock<std::mutex>& guard, PageId p);
  // Quiesce body; caller holds `guard`.
  void QuiesceLocked(std::unique_lock<std::mutex>& guard);

  // --- Write-behind internals (worker mode only) ---
  // Posts each deferred victim write on the write-behind queue; a refused
  // post falls back to executing it synchronously right here
  // (io_drops_flush + dirty_writebacks instead of writebehind_writes).
  // Caller must NOT hold the latch.
  void LaunchDeferredVictimWrites(const std::vector<PageId>& victims);
  // Writes one pending victim image to disk (latch released for the I/O),
  // then completes the VictimWrite entry: on failure the page is
  // re-admitted dirty (or parked), waiters and Quiesce are woken.
  // `foreground` selects the counter: the submitting thread ran it
  // synchronously (dirty_writebacks) vs a write-behind writer
  // (writebehind_writes).
  void ExecuteVictimWrite(PageId v, bool foreground);
  // Exact rollback of a failed write-behind: re-admit `v` dirty and
  // unpinned via ReplacementPolicy::Restore into a freshly acquired frame
  // (synchronous write-backs only — no cascading deferral), or park the
  // image when every frame is pinned. Caller holds the latch.
  void ReadmitFailedVictimLocked(PageId v, std::unique_ptr<char[]> image);

  mutable std::mutex latch_;
  // This pool's key in the thread-local last-fix register: unique per
  // pool (a new pool at a freed pool's address never inherits a stale
  // register), and shared by all shards of a ShardedBufferPool, so there
  // "the thread's previous fix" spans every shard.
  uint64_t fix_key_;
  size_t capacity_;
  DiskManager* disk_;
  std::unique_ptr<ReplacementPolicy> policy_;
  BufferPoolOptions options_;
  // The latch-free hits' publish channel (RecordAccess needs the latch),
  // 64 records x 8 stripes.
  mutable AccessBuffer access_buffer_{/*capacity=*/64, /*stripes=*/8};
  // Owned dispatcher (private to this pool); io_ points here or at the
  // shared one passed in, and is null in inline mode.
  std::unique_ptr<IoDispatcher> owned_io_;
  IoDispatcher* io_ = nullptr;
  // Where a demand read paired with a dirty victim's write-back lands
  // (latch-guarded; present iff inline mode, the only pools that pair).
  std::unique_ptr<char[]> read_scratch_;
  // AcquireFrame's batched-nomination scratch (latch-guarded like the
  // frame it hands out): reused across misses so the steady-state miss
  // path performs no allocation — the capacity sticks after warm-up.
  std::vector<PageId> nominee_scratch_;
  std::vector<PageId> batch_scratch_;
  std::vector<Victim> victim_scratch_;
  std::vector<PageIo> io_scratch_;
  std::vector<size_t> bucket_scratch_;
  // Frames live in a fixed array (Page is immovable now that its pin
  // count and dirty flag are atomics).
  std::unique_ptr<Page[]> frames_;
  std::vector<FrameId> free_frames_;
  // The resident-page index; see page_table.h for the seqlock protocol.
  PageTable page_table_;
  // The per-page request tracker: at most one in-flight read per page.
  // A deque, so records never move; searched linearly, as it holds about
  // one record per thread inside a miss.
  std::deque<PendingIo> reads_;
  size_t tracked_reads_ = 0;  // Records not done.
  // Ids NewPage/AdmitNewPage are admitting. A read of one (a stale fetch of
  // the deleted page it named) drops what it read instead of admitting it.
  std::unordered_set<PageId> admitting_;
  // At most one in-flight victim write per page: created at eviction time
  // (pinned copy), erased on completion. A page is never simultaneously
  // resident, tracked in reads_, and here — fetches of such a page wait
  // out the write first.
  std::unordered_map<PageId, std::shared_ptr<VictimWrite>> pending_victim_writes_;
  // Failed write-behind images with nowhere to go (every frame pinned at
  // re-admit time). Resolved by the next fetch (re-admit), FlushPage/
  // FlushAll (persist), or DeletePage (discard). Never dropped silently.
  std::unordered_map<PageId, std::unique_ptr<char[]>> parked_victims_;
  std::condition_variable quiesce_cv_;
  // Pages whose flush write is in flight: each holds one flush pin, and
  // no page is under two flushes at once (a later flush of the page waits
  // for the earlier one, so their writes cannot land out of order).
  std::unordered_set<PageId> flushing_;
  // Flushes completed so far; a miss waiting out a flush's pins waits for
  // it to move. Both latch-guarded; flush_cv_ is notified at each
  // completion.
  uint64_t flushes_done_ = 0;
  std::condition_variable flush_cv_;
  mutable AtomicPoolStats stats_;
};

}  // namespace lruk

#endif  // LRUK_BUFFERPOOL_BUFFER_POOL_H_
