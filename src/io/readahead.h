// Sequential-scan readahead detection for the buffer pools.
//
// The paper's Example 1.2 problem is a batch process faulting a sequential
// scan in page-at-a-time while interactive traffic waits behind each
// synchronous read. The fix on the I/O side (the policy side is LRU-K
// itself) is to notice the scan shape and stream the next pages in before
// they are asked for.
//
// Detection is by STRIDE VOTING over a short history window rather than a
// strict last-page match: Observe(p) checks, for every candidate stride
// s in [-kReadaheadMaxStride, -1] u [1, kReadaheadMaxStride], how many
// distinct depths d have p - s*d among the last kReadaheadVoteWindow
// observed fetches. A genuine stride-s scan puts its last several pages
// exactly at those offsets, so the winning stride collects one vote per
// visible predecessor; when votes + 1 (p itself) reaches kReadaheadMinRun,
// the detector emits the next kReadaheadWindow pages along the stride.
// Ties go to the larger |s| so a stride-2 scan is not misread as stride 1
// via its even offsets.
//
// Voting is what makes the detector tolerant of SAMPLED and OUT-OF-ORDER
// fetch streams: an interleaved hot-page reference (the Example 1.2 mix)
// lands in the history but votes for nothing, and the scan's own pages
// keep voting no matter what sits between them — where the old
// last-page-match detector dropped its run on every interruption.
// Re-references (diff 0) never vote, and a candidate predecessor only
// counts when |p - q| <= kReadaheadMaxStride * kReadaheadVoteWindow, so a
// hot-page loop costs one comparison per history slot and never triggers.
//
// The detector re-triggers on every OBSERVED reference while a run holds,
// keeping the prefetch horizon a steady kReadaheadWindow pages ahead of
// the scan cursor; callers dedup against their resident set and in-flight
// request tracker, which makes the re-issue cheap. The pools feed it only
// demand misses and prefetch-confirmation hits (the first demand touch of
// a prefetched frame): a scan visits each page once, so its references
// are always one of those two, and withholding steady-state warm hits
// keeps even this Observe's cost entirely off the latch-free hit path —
// while ALSO cleaning the observed stream (hot-page re-references never
// reach the ring, so clustered warm traffic cannot vote at all). The
// conservative bias (no trigger without kReadaheadMinRun aligned
// references) is intentional — a false prefetch evicts someone else's
// page and, on the optimistic pools, drags the latch back onto an
// otherwise latch-free reference. Because votes are deliberately loose
// matches, the minimum run sets the precision (see its comment for the
// measured false-trigger rates) and the vote window the tolerance.
//
// Thread safety: Observe is WAIT-FREE and safe to call concurrently — the
// history is a lock-free ring of atomic PageIds (racy-increment slot
// cursor, relaxed stores) and voting reads a racy snapshot of it. The
// cursor is deliberately a relaxed load + store rather than a locked
// fetch_add: a locked RMW is a full fence on x86 and was the single
// largest cost of an Observe on the latch-free hit path, while the only
// thing the fence bought was never losing a slot race — and a lost race
// just overwrites one history entry, i.e. drops at most one vote, which
// racy ring snapshots allow anyway. Concurrent observers may interleave
// their streams in the ring, which can only make votes (and therefore
// triggers) a property of the merged stream — the same merged stream a
// latched detector would have seen, modulo slot races that at worst drop
// a vote. Single-threaded, the cursor increments exactly and the
// detector is fully deterministic.

#ifndef LRUK_IO_READAHEAD_H_
#define LRUK_IO_READAHEAD_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/types.h"

namespace lruk {

// Pages a trigger emits ahead of the detected cursor. Also the cap on
// prefetch reads a worker-mode pool keeps in flight: prefetch rides the
// dispatcher's lowest-priority lane, so a deeper backlog would only ever
// be serviced by anti-starvation grants — better not to register targets
// the lane cannot absorb (enforced by the pools, not the detector).
inline constexpr size_t kReadaheadWindow = 8;
// Aligned references (votes + the current page) before a trigger. Higher
// than the old exact-run detector's 3 on purpose: votes are tolerant
// matches (any of kReadaheadVoteWindow history slots, either direction),
// so small thresholds fire on clustered NON-scan traffic — on an 80-20
// skew over 4096 pages, a minimum run of 3 triggers on 11% of references
// (each spurious trigger costs a latched register and junk prefetch I/O)
// while 5 triggers on 0.14%, and a genuine scan sampled 1:1 with hot-page
// traffic is still caught at its 5th page. Tolerance of sparser sampling
// comes from the vote window, not from lowering this: a scan page can
// vote from kReadaheadVoteWindow observations back, so detection needs
// kReadaheadMinRun - 1 scan pages per kReadaheadVoteWindow references.
inline constexpr size_t kReadaheadMinRun = 5;
// Strides with |stride| beyond this are not "sequential" (a Zipfian
// workload occasionally lands on neighbouring hot pages; a real scan
// steps by a small constant).
inline constexpr int64_t kReadaheadMaxStride = 4;
// History depth the voting runs over: the last kReadaheadVoteWindow
// observed fetches. A scan page can vote from up to this many observations
// back, which is what tolerates interleaved traffic between scan
// references.
inline constexpr size_t kReadaheadVoteWindow = 8;

class ReadaheadDetector {
 public:
  ReadaheadDetector() {
    for (std::atomic<PageId>& slot : ring_) {
      slot.store(kInvalidPageId, std::memory_order_relaxed);
    }
  }

  // Observes the next fetched page. If some stride collects
  // kReadaheadMinRun - 1 votes from the history, appends the next
  // kReadaheadWindow page ids along that stride to `out` (targets that
  // would underflow page-id zero are dropped). `out` is cleared first.
  // Wait-free; see the header comment.
  //
  // The whole vote table is ONE uint64_t of eight 8-bit lanes (lane s-1 =
  // positive stride s, lane s+3 = negative; bit d-1 of a lane = matched
  // depth d). Each in-gate history entry contributes one table load and
  // one OR — no scratch array, no per-call zeroing — and a negative diff
  // is the same mask shifted into the high lanes. Observe sits on the
  // latch-free hit path; together with the count-only gate pass and the
  // unlocked publish below, this keeps the detector from taxing warm hits
  // (~90 ns -> ~37 ns per call on an 80-20 skew).
  void Observe(PageId p, std::vector<PageId>* out) {
    out->clear();
    // Snapshot the ring once (relaxed atomic loads into locals), then run
    // a COUNT-ONLY branchless gate pass over the snapshot: no table loads,
    // just |p - q| <= kGate per entry. An entry sets at most one depth bit
    // per stride (ad = s*d fixes d given s), so fewer than
    // kReadaheadMinRun - 1 in-gate entries cannot reach a trigger no
    // matter how they vote — the common case on non-scan traffic, which
    // pays only the gate arithmetic and skips the vote gathering and
    // winner scan entirely.
    PageId snap[kReadaheadVoteWindow];
    for (size_t i = 0; i < kReadaheadVoteWindow; ++i) {
      snap[i] = ring_[i].load(std::memory_order_relaxed);
    }
    size_t in_gate_count = 0;
    for (PageId q : snap) {
      int64_t diff = static_cast<int64_t>(p) - static_cast<int64_t>(q);
      int64_t ad = diff < 0 ? -diff : diff;
      in_gate_count += (q != kInvalidPageId) & (diff != 0) & (ad <= kGate);
    }
    // Publish p before any early return so the NEXT Observe sees it
    // (racy-increment cursor; see the header comment for why this is not
    // a fetch_add).
    uint64_t cur = pos_.load(std::memory_order_relaxed);
    pos_.store(cur + 1, std::memory_order_relaxed);
    ring_[cur % kReadaheadVoteWindow].store(p, std::memory_order_relaxed);
    if (in_gate_count + 1 < kReadaheadMinRun) return;
    // Gather votes from the SAME snapshot (the live ring now contains p
    // itself).
    uint64_t votes = 0;
    for (PageId q : snap) {
      if (q == kInvalidPageId) continue;
      int64_t diff = static_cast<int64_t>(p) - static_cast<int64_t>(q);
      if (diff == 0) continue;  // A re-reference is never scan progress.
      int64_t ad = diff < 0 ? -diff : diff;
      if (ad > kGate) continue;  // Too far to be s*d for any candidate.
      // diff >> 63 is all-ones for negative diffs: branchless select of
      // the high (negative-stride) lanes.
      votes |= kVoteTable[ad - 1]
               << (static_cast<uint64_t>(diff >> 63) & kNegativeLaneShift);
    }
    // Winner: most votes (distinct-depth popcount per lane, so a page
    // observed twice still votes once); ties to the larger |s| (a stride-2
    // scan also matches s=1 at even depths — the larger stride is the real
    // one).
    int64_t best_stride = 0;
    size_t best_votes = 0;
    for (int64_t s = 1; s <= kReadaheadMaxStride; ++s) {
      for (int neg = 0; neg < 2; ++neg) {
        uint64_t shift = static_cast<uint64_t>(s - 1) * 8 +
                         (neg != 0 ? kNegativeLaneShift : 0);
        size_t count =
            static_cast<size_t>(std::popcount((votes >> shift) & 0xff));
        if (count >= best_votes && count > 0) {
          best_votes = count;
          best_stride = neg != 0 ? -s : s;
        }
      }
    }
    if (best_votes + 1 < kReadaheadMinRun) return;
    for (size_t i = 1; i <= kReadaheadWindow; ++i) {
      int64_t target =
          static_cast<int64_t>(p) + best_stride * static_cast<int64_t>(i);
      if (target < 0) break;
      out->push_back(static_cast<PageId>(target));
    }
  }

 private:
  // The largest |diff| that is s*d for some candidate stride and depth.
  static constexpr int64_t kGate =
      kReadaheadMaxStride * static_cast<int64_t>(kReadaheadVoteWindow);
  // Bit offset of the negative-stride lanes in the vote word: lanes 0..3
  // hold the positive strides and 4..7 the negative ones, 8 depth bits
  // each.
  static constexpr uint64_t kNegativeLaneShift = 32;
  static_assert(kReadaheadMaxStride >= 1 && kReadaheadMaxStride <= 4 &&
                    kReadaheadVoteWindow <= 8,
                "every (stride, depth) vote bit must fit the low 32 bits");

  // Row ad-1 is the vote word with bit (s-1)*8 + (d-1) set for every
  // s*d == ad (built at compile time).
  static constexpr std::array<uint64_t, kGate> kVoteTable = [] {
    std::array<uint64_t, kGate> table{};
    for (int64_t s = 1; s <= kReadaheadMaxStride; ++s) {
      for (int64_t d = 1; d <= static_cast<int64_t>(kReadaheadVoteWindow);
           ++d) {
        table[static_cast<size_t>(s * d - 1)] |= uint64_t{1}
                                                 << ((s - 1) * 8 + (d - 1));
      }
    }
    return table;
  }();

  std::atomic<PageId> ring_[kReadaheadVoteWindow];
  std::atomic<uint64_t> pos_{0};
};

}  // namespace lruk

#endif  // LRUK_IO_READAHEAD_H_
