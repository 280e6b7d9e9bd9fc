#include "core/lru_k.h"

#include <string>
#include <utility>

namespace lruk {

LruKPolicy::LruKPolicy(LruKOptions options)
    : options_(options),
      name_("LRU-" + std::to_string(options.k)),
      table_(options.k, options.retained_information_period,
             options.max_nonresident_history, options.capacity_hint) {
  LRUK_ASSERT(options_.k >= 1 && options_.k <= kMaxHistoryK,
              "LRU-K requires 1 <= K <= kMaxHistoryK");
  if (options_.capacity_hint > 0) {
    // Pre-size the heap's backing vector for the expected resident count.
    std::vector<VictimKey> storage;
    storage.reserve(options_.capacity_hint);
    heap_ = decltype(heap_)(std::greater<VictimKey>{}, std::move(storage));
  }
}

bool LruKPolicy::IsResident(PageId p) const {
  const HistoryBlock* block = table_.Find(p);
  return block != nullptr && block->resident;
}

void LruKPolicy::ForEachResident(
    const std::function<void(PageId)>& visit) const {
  table_.ForEach([&](PageId page, const HistoryBlock& block) {
    if (block.resident) visit(page);
  });
}

Timestamp LruKPolicy::Tick() {
  if (options_.clock != nullptr) {
    // Wall-clock mode: take the clock's reading, clamped monotone (two
    // references in the same clock quantum share a timestamp, which the
    // victim ordering disambiguates by page id).
    Timestamp now = options_.clock->Now();
    time_ = now > time_ ? now : time_;
  } else {
    ++time_;
  }
  if (options_.retained_information_period != kInfinitePeriod &&
      options_.purge_interval != 0 &&
      time_ - last_purge_time_ >= options_.purge_interval) {
    table_.PurgeExpired(time_);
    last_purge_time_ = time_;
  }
  return time_;
}

void LruKPolicy::HeapPushIfAbsent(PageId p, HistoryBlock& block) {
  if (block.in_victim_heap) return;
  heap_.push(KeyFor(p, block));
  block.in_victim_heap = true;
}

void LruKPolicy::RecordAccess(PageId p, AccessType /*type*/) {
  Timestamp t = Tick();
  HistoryBlock* block = table_.Find(p);
  LRUK_ASSERT(block != nullptr && block->resident,
              "RecordAccess on a non-resident page");

  bool process_differs = options_.per_process_correlation &&
                         block->last_process != current_process_;
  if (process_differs ||
      t - block->last > options_.correlated_reference_period) {
    // A new, uncorrelated reference (Figure 2.1, then-branch): close the
    // correlated period and credit only its start-to-start interval.
    Timestamp correlation_period = block->last - block->hist.front();
    // The victim heap is not touched here — the page's entry goes stale
    // and is re-keyed when an eviction pops it (the O(1) hit path). The
    // key only ever grows under this shift, which is what makes staleness
    // safe (see DESIGN.md "Victim search").
    for (size_t i = block->hist.size() - 1; i >= 1; --i) {
      // Simultaneous shift; unknown entries (0) stay unknown.
      block->hist[i] =
          block->hist[i - 1] == 0 ? 0 : block->hist[i - 1] + correlation_period;
    }
    block->hist.front() = t;
    block->last = t;
  } else {
    // A correlated reference: only LAST(p) moves; the history (and thus the
    // page's position in the victim order) is unchanged.
    block->last = t;
  }
  block->last_process = current_process_;
}

void LruKPolicy::Admit(PageId p, AccessType /*type*/) {
  // Settle deferred evictions first, so the victims' retained history
  // (and the budget it burns) is current before this admission ticks the
  // clock, whichever of Evict and EvictBatch chose them.
  FlushDeferredEvictions();
  Timestamp t = Tick();
  bool had_history = false;
  HistoryBlock& block = table_.GetOrCreate(p, t, &had_history);
  LRUK_ASSERT(!block.resident, "Admit on an already-resident page");

  if (had_history) {
    // Figure 2.1, miss path with existing HIST(p): shift the retained
    // references down one slot to make room for this one.
    for (size_t i = block.hist.size() - 1; i >= 1; --i) {
      block.hist[i] = block.hist[i - 1];
    }
  }
  // Fresh blocks already have every entry at 0 ("no earlier reference").
  block.hist.front() = t;
  block.last = t;
  block.last_process = current_process_;
  block.resident = true;
  block.evictable = true;
  // A pre-eviction entry may survive in the heap (flagged); its key is <=
  // the post-shift key, so it covers this page until re-keyed. Fresh/reset
  // blocks have the flag cleared and get a new entry.
  HeapPushIfAbsent(p, block);
  ++resident_count_;
  ++evictable_count_;
}

bool LruKPolicy::EligibleAt(const HistoryBlock& block, Timestamp t) const {
  return t - block.last > options_.correlated_reference_period;
}

std::optional<PageId> LruKPolicy::PickVictim(Timestamp t) {
  // Pops ascend by key. Invariant: every evictable resident page has a
  // heap entry with key <= its current key (keys only grow while a block
  // keeps its history; the paths that can shrink a key — RIP expiry,
  // Remove — clear the flag, and the next Admit pushes a fresh entry). So
  // the first pop whose key still matches its block is the true minimum
  // over all evictable residents: Figure 2.1's scan, without the scan.
  std::vector<VictimKey> ineligible;  // Fresh pops inside their CRP.
  std::optional<VictimKey> victim;
  while (!heap_.empty()) {
    VictimKey entry = heap_.top();
    heap_.pop();
    HistoryBlock* block = table_.Find(entry.page);
    if (block == nullptr || !block->resident || !block->evictable) {
      // Dead entry: the page left the evictable-resident set after the
      // push (eviction, pin, or removal — all lazy). Clearing the flag
      // lets SetEvictable/Admit re-index the page later.
      if (block != nullptr) block->in_victim_heap = false;
      continue;
    }
    VictimKey current = KeyFor(entry.page, *block);
    if (current != entry) {
      // Stale entry: hits advanced the key since the push. Re-key it —
      // each stale entry is re-keyed at most once per search, so the loop
      // terminates and the amortized cost stays one heap op per hit.
      heap_.push(current);
      continue;
    }
    if (EligibleAt(*block, t)) {
      victim = entry;
      break;
    }
    ineligible.push_back(entry);
  }
  size_t keep_from = 0;
  if (!victim && !ineligible.empty()) {
    // Everyone is inside a correlated period; a real buffer manager still
    // has to yield a slot (see header). The first fresh pop is the minimum
    // current key over all evictable residents, eligible or not.
    victim = ineligible.front();
    keep_from = 1;
    ++fallback_evictions_;
  }
  // Fresh-but-ineligible keys go back; the victim's entry stays consumed.
  for (size_t i = keep_from; i < ineligible.size(); ++i) {
    heap_.push(ineligible[i]);
  }
  if (!victim) return std::nullopt;
  table_.Find(victim->page)->in_victim_heap = false;
  return victim->page;
}

std::optional<PageId> LruKPolicy::EvictOne() {
  if (evictable_count_ == 0) return std::nullopt;
  // The eviction happens while servicing the *next* reference (Figure 2.1
  // runs victim selection at the faulting reference's time t); our caller
  // invokes Evict() just before Admit() ticks the clock, so eligibility is
  // tested against the prospective time.
  Timestamp t;
  if (options_.clock != nullptr) {
    Timestamp now = options_.clock->Now();
    t = now > time_ ? now : time_;
  } else {
    t = time_ + 1;
  }
  std::optional<PageId> victim = PickVictim(t);
  // With evictable pages present the search must produce a victim (the
  // heap's coverage invariant guarantees an entry exists).
  LRUK_ASSERT(victim.has_value(), "victim heap lost an evictable page");
  if (!victim) return std::nullopt;
  // History is retained past residence — the whole point of Section 2.1.2
  // — up to the configured non-resident block budget. The retention (and
  // the budget enforcement) is deferred to the next Evict/EvictBatch/
  // Admit/Remove, so a victim the caller hands straight back via Restore
  // never churns the budget: under max_nonresident_history an immediate
  // retention could drop another page's block, which Restore cannot bring
  // back.
  table_.Find(*victim)->resident = false;
  deferred_evictions_.push_back(*victim);
  --resident_count_;
  --evictable_count_;
  return victim;
}

std::optional<PageId> LruKPolicy::Evict() {
  FlushDeferredEvictions();
  return EvictOne();
}

size_t LruKPolicy::EvictBatch(size_t k, std::vector<PageId>* out) {
  FlushDeferredEvictions();
  out->clear();
  while (out->size() < k) {
    std::optional<PageId> victim = EvictOne();
    if (!victim.has_value()) break;
    out->push_back(*victim);
  }
  return out->size();
}

void LruKPolicy::FlushDeferredEvictions() {
  if (deferred_evictions_.empty()) return;
  for (PageId p : deferred_evictions_) {
    HistoryBlock* block = table_.Find(p);
    // Skip nominees whose block is gone (RIP purge) or resident again
    // (Restored — the nomination was cancelled, nothing to retain).
    if (block == nullptr || block->resident) continue;
    table_.RetainEvicted(p, *block);
  }
  deferred_evictions_.clear();
}

void LruKPolicy::Restore(PageId p) {
  // No Tick(): restoring a failed eviction is not a reference. Reclaim
  // pulls the block back out of the non-resident index with no RIP check —
  // the page was resident until its Evict, so its history is as current as
  // it was then. Only a block the eviction's retention dropped (budget) or
  // the demon purged since is gone, and then the page restarts fresh.
  bool had_history = false;
  HistoryBlock& block = table_.Reclaim(p, &had_history);
  LRUK_ASSERT(!block.resident, "Restore on a resident page");
  if (!had_history) {
    block.hist.front() = time_;
    block.last = time_;
    block.last_process = current_process_;
  }
  block.resident = true;
  block.evictable = true;
  // Evict()'s pop cleared in_victim_heap for the true victim, so this
  // re-establishes heap coverage with the page's current key.
  HeapPushIfAbsent(p, block);
  ++resident_count_;
  ++evictable_count_;
}

void LruKPolicy::Remove(PageId p) {
  FlushDeferredEvictions();
  HistoryBlock* block = table_.Find(p);
  LRUK_ASSERT(block != nullptr && block->resident,
              "Remove on a non-resident page");
  if (block->evictable) {
    // The heap entry dangles and is discarded when popped.
    --evictable_count_;
  }
  --resident_count_;
  // Remove() means the page object was destroyed (not merely evicted), so
  // its history dies with it.
  table_.Erase(p);
}

void LruKPolicy::SetEvictable(PageId p, bool evictable) {
  HistoryBlock* block = table_.Find(p);
  LRUK_ASSERT(block != nullptr && block->resident,
              "SetEvictable on a non-resident page");
  if (block->evictable == evictable) return;
  block->evictable = evictable;
  if (evictable) {
    ++evictable_count_;
    // Un-pinning must restore heap coverage. If the pinned-era entry was
    // never popped the flag is still set and this is a no-op.
    HeapPushIfAbsent(p, *block);
  } else {
    // Pinning leaves the entry in place; a pop while the page is pinned
    // discards it as dead.
    --evictable_count_;
  }
}

std::optional<Timestamp> LruKPolicy::BackwardKDistance(PageId p) const {
  const HistoryBlock* block = table_.Find(p);
  if (block == nullptr || table_.Expired(*block, time_)) return std::nullopt;
  if (block->HistK() == 0) return std::nullopt;  // Fewer than K references.
  return time_ - block->HistK();
}

const HistoryBlock* LruKPolicy::DebugBlock(PageId p) const {
  return table_.Find(p);
}

}  // namespace lruk
