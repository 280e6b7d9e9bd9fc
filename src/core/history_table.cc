#include "core/history_table.h"

#include <algorithm>

namespace lruk {

namespace {
size_t RoundUpPowerOfTwo(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

HistoryTable::HistoryTable(int k, Timestamp retained_information_period,
                           size_t max_nonresident_blocks,
                           size_t capacity_hint)
    : k_(k),
      rip_(retained_information_period),
      max_nonresident_(max_nonresident_blocks) {
  LRUK_ASSERT(k >= 1 && k <= kMaxHistoryK,
              "LRU-K requires 1 <= K <= kMaxHistoryK");
  // Resident blocks plus history-only headroom, kept under the ~0.7 load
  // cap without growing; 16 slots minimum so tiny tables do not rehash on
  // their first few inserts. The table keeps growing past this if the
  // retained set demands it.
  size_t initial = RoundUpPowerOfTwo(
      std::max<size_t>(16, capacity_hint * 3));
  slots_.assign(initial, Slot{});
  mask_ = initial - 1;
}

size_t HistoryTable::FindSlot(PageId p) const {
  size_t i = IdealSlot(p);
  for (;;) {
    if (slots_[i].page == p) return i;
    if (slots_[i].page == kInvalidPageId) return kNpos;
    i = (i + 1) & mask_;
  }
}

void HistoryTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.size() * 2, Slot{});
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.page == kInvalidPageId) continue;
    size_t i = IdealSlot(s.page);
    while (slots_[i].page != kInvalidPageId) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

void HistoryTable::InsertSlot(PageId p, HistoryBlock* block) {
  if ((size_ + 1) * 10 > slots_.size() * 7) Grow();
  size_t i = IdealSlot(p);
  while (slots_[i].page != kInvalidPageId) i = (i + 1) & mask_;
  slots_[i].page = p;
  slots_[i].block = block;
  ++size_;
}

void HistoryTable::EraseSlotAt(size_t i) {
  // Backward-shift deletion: refill the hole with the next probe-chain
  // entry that may legally move there (its ideal slot is not cyclically
  // inside (i, j]), repeating until the chain ends at an empty slot.
  size_t j = i;
  for (;;) {
    slots_[i] = Slot{};
    for (;;) {
      j = (j + 1) & mask_;
      if (slots_[j].page == kInvalidPageId) return;
      size_t ideal = IdealSlot(slots_[j].page);
      bool stuck = (i <= j) ? (i < ideal && ideal <= j)
                            : (i < ideal || ideal <= j);
      if (!stuck) break;
    }
    slots_[i] = slots_[j];
    i = j;
  }
}

HistoryBlock* HistoryTable::AllocateBlock() {
  if (free_blocks_.empty()) {
    chunks_.push_back(std::make_unique<HistoryBlock[]>(kChunkBlocks));
    HistoryBlock* base = chunks_.back().get();
    free_blocks_.reserve(kChunkBlocks);
    for (size_t i = kChunkBlocks; i > 0; --i) {
      free_blocks_.push_back(base + (i - 1));
    }
  }
  HistoryBlock* block = free_blocks_.back();
  free_blocks_.pop_back();
  *block = HistoryBlock(k_);
  return block;
}

bool HistoryTable::Expired(const HistoryBlock& block, Timestamp now) const {
  if (rip_ == kInfinitePeriod || block.resident) return false;
  return now > block.last && (now - block.last) > rip_;
}

HistoryBlock& HistoryTable::Reclaim(PageId p, bool* had_history) {
  size_t i = FindSlot(p);
  if (i == kNpos) {
    HistoryBlock* block = AllocateBlock();
    InsertSlot(p, block);
    *had_history = false;
    return *block;
  }
  HistoryBlock& block = *slots_[i].block;
  if (!block.resident) {
    // The page is coming back into the buffer: it stops being a
    // history-only block (the caller marks it resident).
    nonresident_.erase({block.last, p});
  }
  *had_history = true;
  return block;
}

HistoryBlock& HistoryTable::GetOrCreate(PageId p, Timestamp now,
                                        bool* had_history) {
  HistoryBlock& block = Reclaim(p, had_history);
  if (*had_history && Expired(block, now)) {
    // The demon would have purged this block already; treat it as absent.
    block = HistoryBlock(k_);
    *had_history = false;
  }
  return block;
}

void HistoryTable::RetainEvicted(PageId p, HistoryBlock& block) {
  LRUK_ASSERT(!block.resident, "RetainEvicted on a resident block");
  nonresident_.insert({block.last, p});
  // Enforce the history budget: drop the longest-idle history-only block
  // (possibly the one just evicted, if everything else is fresher).
  while (max_nonresident_ != 0 && nonresident_.size() > max_nonresident_) {
    auto oldest = nonresident_.begin();
    PageId victim = oldest->second;
    nonresident_.erase(oldest);
    size_t i = FindSlot(victim);
    LRUK_ASSERT(i != kNpos, "non-resident index out of sync with table");
    free_blocks_.push_back(slots_[i].block);
    EraseSlotAt(i);
    --size_;
  }
}

void HistoryTable::Erase(PageId p) {
  size_t i = FindSlot(p);
  if (i == kNpos) return;
  HistoryBlock* block = slots_[i].block;
  if (!block->resident) nonresident_.erase({block->last, p});
  free_blocks_.push_back(block);
  EraseSlotAt(i);
  --size_;
}

size_t HistoryTable::PurgeExpired(Timestamp now) {
  if (rip_ == kInfinitePeriod) return 0;
  // Two passes: backward-shift deletion moves slots around, so collecting
  // victims first keeps the scan from skipping (or re-visiting) entries.
  std::vector<PageId> expired;
  ForEach([&](PageId p, const HistoryBlock& block) {
    if (Expired(block, now)) expired.push_back(p);
  });
  for (PageId p : expired) Erase(p);
  return expired.size();
}

}  // namespace lruk
