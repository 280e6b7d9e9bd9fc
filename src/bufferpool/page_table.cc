#include "bufferpool/page_table.h"

#include <algorithm>

namespace lruk {

namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

PageTable::PageTable(size_t capacity)
    : capacity_(capacity) {
  size_t want = capacity < 8 ? 16 : 2 * capacity;
  size_t buckets = NextPow2(want);
  mask_ = buckets - 1;
  buckets_ = std::vector<Bucket>(buckets);
}

size_t PageTable::FindBucket(PageId p) const {
  size_t i = IdealBucket(p);
  while (true) {
    PageId got = buckets_[i].page.load(std::memory_order_relaxed);
    if (got == p) return i;
    if (got == kInvalidPageId) return kNpos;
    i = (i + 1) & mask_;
  }
}

bool PageTable::Find(PageId p, FrameId* frame) const {
  size_t i = FindBucket(p);
  if (i == kNpos) return false;
  *frame = buckets_[i].frame.load(std::memory_order_relaxed);
  return true;
}

void PageTable::Insert(PageId p, FrameId frame) {
  LRUK_ASSERT(size_ < capacity_, "PageTable overfull");
  size_t i = IdealBucket(p);
  while (true) {
    PageId got = buckets_[i].page.load(std::memory_order_relaxed);
    LRUK_ASSERT(got != p, "PageTable::Insert duplicate page");
    if (got == kInvalidPageId) break;
    i = (i + 1) & mask_;
  }
  Bucket& b = buckets_[i];
  uint64_t v = b.version.load(std::memory_order_relaxed);
  b.version.store(v + 1);  // odd: mutating
  b.page.store(p);
  b.frame.store(frame);
  b.version.store(v + 2);  // even: stable
  ++size_;
}

size_t PageTable::LockBucket(PageId p) {
  size_t i = FindBucket(p);
  LRUK_ASSERT(i != kNpos, "PageTable::LockBucket absent page");
  Bucket& b = buckets_[i];
  // seq_cst store: the caller's subsequent pin-count load must not be
  // reordered before this (Dekker handshake with the optimistic pinner).
  b.version.store(b.version.load(std::memory_order_relaxed) + 1);
  return i;
}

void PageTable::UnlockUnchanged(size_t bucket) {
  Bucket& b = buckets_[bucket];
  b.version.store(b.version.load(std::memory_order_relaxed) + 1);
}

void PageTable::UnlockErased(size_t bucket) {
  EraseFromLockedBucket(bucket);
  --size_;
}

void PageTable::UnlockErased(std::span<size_t> buckets) {
  // Within a cluster, a bucket nearer the end has fewer occupied buckets
  // after it; erasing it never moves the locked buckets before it, so the
  // order stays right as the erases go.
  auto tail = [&](size_t bucket) {
    size_t n = 0;
    while (buckets_[(bucket + n + 1) & mask_].page.load(
               std::memory_order_relaxed) != kInvalidPageId) {
      ++n;
    }
    return n;
  };
  std::sort(buckets.begin(), buckets.end(),
            [&](size_t a, size_t b) { return tail(a) < tail(b); });
  for (size_t bucket : buckets) UnlockErased(bucket);
}

void PageTable::EraseFromLockedBucket(size_t hole) {
  // buckets_[hole].version is odd (caller locked it). Backward-shift the
  // probe cluster into the hole, giving every moved-from bucket the same
  // odd/even dance so no optimistic reader can validate across a move.
  size_t j = hole;
  while (true) {
    j = (j + 1) & mask_;
    Bucket& bj = buckets_[j];
    PageId pj = bj.page.load(std::memory_order_relaxed);
    if (pj == kInvalidPageId) break;
    size_t ideal = IdealBucket(pj);
    // Move pj into the hole iff the hole lies within pj's probe path,
    // i.e. cyclic distance(ideal -> j) >= distance(hole -> j).
    if (((j - ideal) & mask_) < ((j - hole) & mask_)) continue;
    bj.version.store(bj.version.load(std::memory_order_relaxed) + 1);  // odd
    Bucket& bh = buckets_[hole];
    bh.page.store(pj);
    bh.frame.store(bj.frame.load(std::memory_order_relaxed));
    bh.version.store(bh.version.load(std::memory_order_relaxed) + 1);  // even
    hole = j;  // bj stays odd; it is the new hole
  }
  Bucket& bh = buckets_[hole];
  bh.page.store(kInvalidPageId);
  bh.version.store(bh.version.load(std::memory_order_relaxed) + 1);  // even
}

bool PageTable::OptimisticFind(PageId p, Snapshot* out,
                               ProbeFail* why) const {
  if (why != nullptr) *why = ProbeFail::kNone;
  size_t i = IdealBucket(p);
  // Probes are bounded by the longest cluster; cap defensively so a
  // torn concurrent erase can never spin a reader (fallback is cheap).
  for (size_t step = 0; step <= mask_; ++step, i = (i + 1) & mask_) {
    const Bucket& b = buckets_[i];
    uint64_t v = b.version.load();
    PageId got = b.page.load();
    if (got == p) {
      if (v & 1) {  // mutating: fall back
        if (why != nullptr) *why = ProbeFail::kVersionConflict;
        return false;
      }
      FrameId frame = b.frame.load();
      // Re-check the version so (page, frame) is a consistent pair.
      if (b.version.load() != v) {
        if (why != nullptr) *why = ProbeFail::kVersionConflict;
        return false;
      }
      out->version = v;
      out->frame = frame;
      out->bucket = i;
      return true;
    }
    if (got == kInvalidPageId) {
      // Could be a transient hole from a concurrent backward shift, but
      // a false miss only costs a latched lookup.
      if (why != nullptr) *why = ProbeFail::kMiss;
      return false;
    }
  }
  if (why != nullptr) *why = ProbeFail::kDisplacementBound;
  return false;
}

}  // namespace lruk
