// The buffer pool manager: a fixed set of frames caching disk pages, with
// the replacement decision delegated to any ReplacementPolicy — this is
// the substrate in which LRU-K is meant to live (the paper's prototype was
// built inside the Huron database's buffer manager).
//
// Pin protocol: FetchPage/NewPage return the page pinned; callers must
// balance every fetch with UnpinPage (or use PageGuard). Pinned pages are
// never victims. A fetch when every frame is pinned fails with
// RESOURCE_EXHAUSTED (pins a flush holds are waited out instead).
//
// Thread safety: all pool MUTATIONS (and through them the policy) are
// serialized by one internal latch — coarse-grained by design, since the
// replacement *decision* is the subject of this library. A clean miss's
// read and FlushPage/FlushAll's writes run with the latch released: see
// the thread-safety note in storage/disk_manager.h.
// Page *contents* are accessed outside the latch under the pin protocol: a
// pinned page cannot be evicted, and Page pointers stay stable for the
// pool's lifetime, so concurrent readers are safe; concurrent writers to
// the same page must coordinate among themselves (as with per-page latches
// in a real DBMS). For multi-core scaling, ShardedBufferPool composes
// several of these pools behind the same PoolInterface, and
// BufferPoolOptions::optimistic_hits takes the latch off warm hits and
// unpins entirely (see below).
//
// Optimistic hit protocol (DESIGN.md "Optimistic page table & pin
// protocol"): with optimistic_hits on, a hit is — probe the version-
// stamped PageTable without any lock, speculatively fetch_add the frame's
// atomic pin count, re-validate the bucket version, publish the reference
// to the AccessBuffer, go. Any instability falls back to the latched slow
// path. The cross-cutting invariant every mutation path upholds: no frame
// is evicted, flushed-while-unpinned, deleted, or reused for another page
// without first bumping its page-table bucket version (PageTable::
// LockBucket) and THEN re-checking the pin count — the seq_cst store-load
// handshake that guarantees an optimistic reader either fails validation
// or is seen by the mutator as pinned, never neither.
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
#include "io/readahead.h"
#include "storage/disk_manager.h"
#include "util/status.h"

namespace lruk {

// The options a caller sets, shared by BufferPool and (per shard)
// ShardedBufferPool. Everything else about the pool is fixed: the
// dispatcher's lane depth and starvation budget (io/io_dispatcher.h), the
// readahead detector's window and thresholds (io/readahead.h), and the
// access buffer's size.
struct BufferPoolOptions {
  // Attempts at a disk read or write that fails with a transient error
  // (kIoError) before the error surfaces to the caller, the first
  // included; 1 (the default) is no retry. A retry is re-issued at once
  // (util/retry.h). FlushPage/FlushAll writes retry with the pool latch
  // released, each re-issue a further DiskManager::RunBatch batch of the
  // retryable failures. A clean miss's read (free frame or clean victim),
  // prefetch reads and write-behind victim writes also retry with the
  // latch released. Synchronous eviction write-backs and the writes of
  // parked victim images retry under the latch; so does a dirty miss's
  // paired write-back and read (see AcquireFrame), each re-issue a
  // further batch, as a flush's writes do.
  int io_max_attempts = 1;

  // Latch-free hit path (DESIGN.md "Optimistic page table & pin
  // protocol"). Off (default): hits and unpins take the pool latch.
  // On: warm hits and unpins run entirely without the latch (optimistic
  // version-validated page-table probe + atomic pin counts), falling back
  // to the latched path on any miss or instability. A latch-free hit
  // publishes its reference into a fixed lock-free AccessBuffer (64
  // records x 8 stripes), drained under the latch. Replacement behaviour
  // is byte-identical to the latched path single-threaded; concurrently,
  // a reference is applied at a later drain, and references to pages
  // evicted before it are dropped and counted (access_drops).
  // The policy stamps a reference when it is drained, so with a wall-clock
  // CRP (LruKOptions::clock set) the lag adds real time to interarrival
  // gaps: leave this off there. Composes with readahead: the voting
  // detector's Observe is wait-free, so a latch-free hit feeds it directly
  // and only an actual stride trigger touches the latch.
  bool optimistic_hits = false;

  // Worker threads of the pool's IoDispatcher (DESIGN.md "Async I/O
  // dispatcher"), which every miss reads through; concurrent misses on a
  // page share one read. 0 (the default) = inline mode: requests run on
  // the issuing thread, in issue order, so a single thread's op sequence
  // is fixed by its seed; a clean miss reads with the latch released, a
  // miss with a dirty victim writes it back and reads as one device batch
  // under the latch (see AcquireFrame). > 0 = worker mode: miss reads run
  // on workers, prefetches in the background, and every dirty victim is
  // written behind — its image copied aside, its write posted on the
  // Flush lane and the new page admitted at once (writebehind_writes; a
  // full Flush lane falls back to the synchronous write,
  // dirty_writebacks). A failed write-behind re-admits the page dirty,
  // exactly, via ReplacementPolicy::Restore (writebehind_readmits).
  size_t io_workers = 0;
  // Scan readahead: a stride detector observes the fetch stream and
  // prefetches the next kReadaheadWindow pages of a detected sequential
  // run (the Example 1.2 scan shape). Inline mode prefetches
  // synchronously (deterministic), worker mode streams them in the
  // background. ShardedBufferPool runs one detector above the shards
  // (hash routing destroys per-shard sequentiality).
  bool readahead = false;
};

class BufferPool final : public PoolInterface {
 public:
  // `disk` must outlive the pool. The pool owns the policy. Its I/O goes
  // through `shared_dispatcher` if given (it must outlive the pool and
  // have options.io_workers workers: the shards of a ShardedBufferPool
  // share one), else through a dispatcher of its own.
  BufferPool(size_t capacity, DiskManager* disk,
             std::unique_ptr<ReplacementPolicy> policy,
             BufferPoolOptions options = {},
             IoDispatcher* shared_dispatcher = nullptr);
  ~BufferPool() override;

  Result<Page*> FetchPage(PageId p,
                          AccessType type = AccessType::kRead) override;

  // FetchPage variant reporting whether this reference is OBSERVABLE for
  // scan detection: a demand miss, or the first demand touch of a
  // prefetched frame (the reference that consumes the prefetched flag).
  // Steady-state warm hits are not observable — the pools deliberately
  // keep them off the detector (see CollectPrefetchesLocked): a scan
  // only ever produces misses and prefetch-confirmation hits, so skipping
  // the rest loses no detection while keeping the detector's cost off the
  // latch-free warm path. ShardedBufferPool uses this to gate its
  // pool-level detector the same way.
  Result<Page*> FetchPage(PageId p, AccessType type, bool* observable);

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
  // Drain/push counters for the latch-free hits' AccessBuffer; all-zero
  // unless optimistic_hits.
  AccessBufferStats access_buffer_stats() const {
    auto guard = Lock();
    return access_buffer_ ? access_buffer_->stats() : AccessBufferStats{};
  }

  // --- Async I/O dispatcher surface ---

  // The dispatcher this pool submits through (never null).
  IoDispatcher* io_dispatcher() { return io_; }
  // Requests a background prefetch of `p`: registered in the per-page
  // tracker (so demand fetches coalesce onto it), admitted unpinned and
  // clean on completion. A no-op if `p` is resident or already in flight;
  // silently dropped (prefetch_dropped) if the dispatcher queue is full,
  // no frame is evictable, or the read fails. Used by the readahead paths;
  // public so callers with workload foreknowledge can warm the pool.
  void RequestPrefetch(PageId p);
  // Blocks until every in-flight dispatcher request targeting this pool
  // (miss reads, in inline mode another thread's; prefetches; write-behind
  // victim writes) has completed. FlushAll fences through this;
  // DeletePage fences per page.
  void Quiesce();
  // In-flight tracked reads (misses + prefetches); 0 after Quiesce().
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

  // One tracked read (a miss or a prefetch) of `page`, in flight until
  // `done`. Waiters count themselves in `waiters` and sleep on `cv` with
  // the pool latch; the issuer sets `status` and `done` and notifies. A
  // done record with no waiters is reused for the next read (all
  // latch-guarded), so a steady-state miss allocates nothing.
  struct PendingIo {
    PageId page = kInvalidPageId;
    Status status;
    bool done = true;
    // Set when a prefetch is abandoned (queue full, no frame, failed
    // read): coalesced demand waiters must not inherit the failure — they
    // re-loop and issue their own primary read instead.
    bool retry_as_primary = false;
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

  // Counts one optimistic attempt that fell back to the latched path,
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
  // WriteBackVictim). `done` once it did; `status` is then the read's, and
  // on success the page's image is in read_scratch_.
  struct DemandRead {
    PageId page = kInvalidPageId;
    bool done = false;
    Status status;
  };

  // RunBatch under options_.io_max_attempts per entry, with the pool's
  // failure/retry accounting (every synchronous write goes through it):
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
  // cause (every frame pinned while a flush holds pins). If so, waits for
  // a flush to finish and returns true: the caller starts over, since the
  // latch was released. Caller holds `guard`.
  bool AwaitFlushLocked(std::unique_lock<std::mutex>& guard,
                        const Status& failed);
  // Finds a frame for a new resident page: the free list first, then a
  // policy eviction (with dirty write-back). If the victim's write-back
  // fails, the eviction is rolled back (policy_->Restore) and the pool is
  // left exactly as before the call. A synchronous write-back carries
  // `demand` when given (see WriteBackVictim); if its read fails, the
  // eviction stands and the frame is returned all the same. In optimistic
  // mode the policy may nominate pinned victims (SetEvictable is unused
  // there — pin counts are ground truth); they are skipped under the
  // bucket handshake and restored afterwards.
  //
  // Write-behind: when `deferred_writes` is non-null and the dispatcher
  // runs in worker mode, a dirty victim's image is copied into a
  // VictimWrite entry, the victim's id is appended to `deferred_writes`,
  // and the frame is returned immediately — the caller MUST pass the list
  // to LaunchDeferredVictimWrites after releasing the latch. A null
  // `deferred_writes` forces the synchronous write-back (used on failure
  // paths that must not cascade).
  Result<FrameId> AcquireFrame(std::vector<PageId>* deferred_writes,
                               DemandRead* demand = nullptr);
  // AcquireFrame's dirty-victim step for `v` in `page` (held exclusively):
  // a write-behind image copy onto `deferred_writes` when non-null, else a
  // synchronous write-back, whose failure leaves the pool unchanged. With
  // `demand`, the write-back and the demand read go to the device as one
  // DiskBatch, so a device that overlaps operations serves both in one
  // service time, and the read lands in read_scratch_: the frame keeps the
  // victim's image until the write has landed. A failed write-back fails
  // the step as before (`demand` is left not done).
  Status WriteBackVictim(PageId v, Page& page,
                         std::vector<PageId>* deferred_writes,
                         DemandRead* demand);
  // NewPage/AdmitNewPage body; caller holds `guard`.
  Result<Page*> AdmitNewPageLocked(std::unique_lock<std::mutex>& guard,
                                   PageId p,
                                   std::vector<PageId>* deferred_writes);
  // Records `p` as the calling thread's latest fix on this pool (every
  // successful FetchPage, NewPage and AdmitNewPage calls it).
  void NoteFix(PageId p) const;
  // FetchPage body. `refix`: the fetch is a correlated re-fix, so a hit
  // does not reach the policy (a miss is admitted as usual).
  Result<Page*> FixPage(PageId p, AccessType type, bool refix,
                        bool* observable);
  // Applies every buffered access record to the policy, dropping records
  // whose page was evicted since (see AccessBuffer::Drain); a no-op
  // without optimistic_hits. Caller holds the latch. Declared const because
  // observation paths (stats) drain too; the mutation happens through the
  // shallow-const member pointers.
  void DrainAccessBufferLocked() const;
  // The latch-free hit attempt: optimistic probe, speculative pin,
  // validate, count, publish. Returns the pinned page, or null on any
  // miss/instability (caller falls back to the latched path). Never
  // acquires the latch except to drain a full access-buffer stripe or to
  // register the prefetches of a stride trigger. A `refix` hit publishes
  // nothing.
  // `observable` (optional) reports whether the hit consumed the
  // prefetched flag (see the FetchPage overload).
  Page* TryOptimisticHit(PageId p, AccessType type, bool refix,
                         bool* observable);

  // --- Dispatcher internals (all: caller holds the latch) ---
  // The in-flight read of `p`, or null.
  PendingIo* FindPendingLocked(PageId p);
  // Starts tracking a read of `p`, which has none in flight.
  PendingIo* TrackReadLocked(PageId p);
  // Completes a tracked read: publishes status, wakes waiters and Quiesce.
  void FinishPendingLocked(PendingIo* entry, Status status);
  // Drops the registered prefetch `entry` (prefetch_dropped): never an
  // error to a demand fetch, whose coalesced waiters retry as primaries.
  void AbandonPrefetchLocked(PendingIo* entry, Status status);
  // Waits (releasing `guard`) for `entry` to complete. Returns its status,
  // or Ok if it was an abandoned prefetch.
  Status AwaitReadLocked(std::unique_lock<std::mutex>& guard,
                         PendingIo* entry);
  // Blocks until no read, victim write or flush of `p` is in flight
  // (DeletePage's fence). Caller holds `guard`.
  void FencePageLocked(std::unique_lock<std::mutex>& guard, PageId p);
  // Quiesce body; caller holds `guard`.
  void QuiesceLocked(std::unique_lock<std::mutex>& guard);
  // Registers a prefetch of `p` in the tracker if it is neither resident
  // nor in flight; returns whether registered. Caller holds the latch.
  bool RegisterPrefetchLocked(PageId p);
  // Executes one registered prefetch (on a worker, or inline).
  void ExecutePrefetch(PageId p);
  // Posts registered prefetches. Caller must NOT hold the latch (inline
  // mode runs them synchronously right here).
  void LaunchPrefetches(const std::vector<PageId>& prefetches);
  // Readahead bookkeeping on the fetch path: observes `p` (only when
  // `observe` — the reference is a demand miss or a prefetch-confirmation
  // hit; steady warm hits stay off the detector) and collects and
  // registers prefetch targets into `targets`. Caller holds the latch.
  void CollectPrefetchesLocked(PageId p, bool observe,
                               std::vector<PageId>* targets);

  // --- Write-behind internals (worker mode only) ---
  // Posts each deferred victim write on the Flush lane; a full lane falls
  // back to executing it synchronously right here (io_drops_flush +
  // dirty_writebacks instead of writebehind_writes). Caller must NOT hold
  // the latch. Safe from dispatcher workers (TryPost never blocks).
  void LaunchDeferredVictimWrites(const std::vector<PageId>& victims);
  // Writes one pending victim image to disk (latch released for the I/O),
  // then completes the VictimWrite entry: on failure the page is
  // re-admitted dirty (or parked), waiters and Quiesce are woken.
  // `foreground` selects the counter: the submitting thread ran it
  // synchronously (dirty_writebacks) vs a Flush-lane worker
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
  // options_.optimistic_hits: FetchPage and UnpinPage try the latch-free
  // path first, mutation paths use the bucket handshake, and SetEvictable
  // is suppressed (pin counts are the ground truth).
  bool optimistic_ = false;
  // Present iff optimistic_: the latch-free hits' publish channel.
  std::unique_ptr<AccessBuffer> access_buffer_;
  // Owned dispatcher (private to this pool); io_ points here or at the
  // shared one passed in.
  std::unique_ptr<IoDispatcher> owned_io_;
  IoDispatcher* io_ = nullptr;
  // Present iff readahead is enabled on a non-sharded pool.
  std::unique_ptr<ReadaheadDetector> readahead_;
  // Scratch for ReadaheadDetector::Observe on the LATCHED fetch path
  // (latch-guarded, reused to avoid a per-fetch allocation). The
  // latch-free hit path uses a stack-local vector instead: it only pays
  // for an allocation when a stride actually triggers.
  std::vector<PageId> readahead_scratch_;
  // Where a demand read paired with a dirty victim's write-back lands
  // (latch-guarded; present iff inline mode, the only pools that pair).
  std::unique_ptr<char[]> read_scratch_;
  // AcquireFrame's batched-nomination scratch (latch-guarded like the
  // frame it hands out): reused across misses so the steady-state miss
  // path performs no allocation — the capacity sticks after warm-up.
  std::vector<PageId> nominee_scratch_;
  std::vector<PageId> batch_scratch_;
  // Frames live in a fixed array (Page is immovable now that its pin
  // count and dirty flag are atomics).
  std::unique_ptr<Page[]> frames_;
  std::vector<FrameId> free_frames_;
  // Per-frame "prefetched and not yet demand-referenced" flag, feeding
  // prefetch_used; atomic so the latch-free hit can consume it.
  std::unique_ptr<std::atomic<uint8_t>[]> frame_prefetched_;
  // The resident-page index; see page_table.h for the seqlock protocol.
  PageTable page_table_;
  // The per-page request tracker: at most one in-flight read per page.
  // A deque, so records never move; searched linearly, as it holds about
  // one record per thread inside a miss plus the in-flight prefetches.
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
  // Prefetches registered but not finished (latch-guarded, and tracked
  // reads too): bounded by kReadaheadWindow in worker mode.
  size_t inflight_prefetches_ = 0;
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
