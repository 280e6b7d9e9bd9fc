#include "heap/heap_file.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>
#include <vector>

namespace lruk {

namespace {

// Pages a scan fixes at a time. Two overlap a miss's read with the next
// page's; longer runs read worse on scan_mix (EXPERIMENTS.md "Scans fix
// pages in pairs"): they pin more of the pool in a burst, and leave no read
// in flight while a paced scanner visits the run's pages.
constexpr size_t kScanRun = 2;

struct HeapPageHeader {
  uint32_t slot_count;  // Slots allocated, including tombstones.
  uint32_t free_start;  // Lowest byte offset used by record data.
  PageId next_page;     // Chain link; kInvalidPageId at the tail.
};

struct Slot {
  uint16_t offset;  // Byte offset of the record within the page.
  uint16_t length;  // 0 = tombstone.
};

Slot* SlotArray(char* data) {
  return reinterpret_cast<Slot*>(data + sizeof(HeapPageHeader));
}
const Slot* SlotArray(const char* data) {
  return reinterpret_cast<const Slot*>(data + sizeof(HeapPageHeader));
}
HeapPageHeader* Header(char* data) {
  return reinterpret_cast<HeapPageHeader*>(data);
}
const HeapPageHeader* Header(const char* data) {
  return reinterpret_cast<const HeapPageHeader*>(data);
}

// Free bytes if a record of `length` is inserted using `new_slots`
// additional slot entries.
bool Fits(const HeapPageHeader* header, size_t length, size_t new_slots) {
  size_t directory_end = sizeof(HeapPageHeader) +
                         (header->slot_count + new_slots) * sizeof(Slot);
  return directory_end + length <= header->free_start;
}

// Whether `slot` holds a live (allocated, not tombstoned) record.
bool IsLive(const char* data, uint16_t slot) {
  return slot < Header(data)->slot_count && SlotArray(data)[slot].length > 0;
}

// Rewrites the page's live records flush against the page end, closing
// holes left by deletes and updates.
void CompactPage(char* data) {
  HeapPageHeader* header = Header(data);
  Slot* slots = SlotArray(data);
  // Copy live records out, then re-place them from the tail down.
  std::vector<std::string> payloads(header->slot_count);
  for (uint32_t s = 0; s < header->slot_count; ++s) {
    if (slots[s].length > 0) {
      payloads[s].assign(data + slots[s].offset, slots[s].length);
    }
  }
  uint32_t cursor = kPageSize;
  for (uint32_t s = 0; s < header->slot_count; ++s) {
    if (slots[s].length == 0) continue;
    cursor -= slots[s].length;
    std::memcpy(data + cursor, payloads[s].data(), slots[s].length);
    slots[s].offset = static_cast<uint16_t>(cursor);
  }
  header->free_start = cursor;
}

}  // namespace

HeapFile::HeapFile(PoolInterface* pool, PageId head) : pool_(pool) {
  LRUK_ASSERT(pool_ != nullptr, "HeapFile needs a buffer pool");
  // Re-attach: walk the chain to list its pages and count live records.
  PageId current = head;
  while (current != kInvalidPageId) {
    auto guard = PageGuard::Fetch(*pool_, current);
    LRUK_ASSERT(guard.ok(), "heap chain page unreadable");
    const char* data = guard->Data();
    const HeapPageHeader* header = Header(data);
    const Slot* slots = SlotArray(data);
    for (uint32_t s = 0; s < header->slot_count; ++s) {
      if (slots[s].length > 0) ++size_;
    }
    pages_.push_back(current);
    current = header->next_page;
  }
}

size_t HeapFile::MaxRecordSize() {
  return kPageSize - sizeof(HeapPageHeader) - sizeof(Slot);
}

Result<PageGuard> HeapFile::AppendPage() {
  auto guard = PageGuard::New(*pool_);
  if (!guard.ok()) return guard.status();
  HeapPageHeader* header = Header(guard->MutableData());
  header->slot_count = 0;
  header->free_start = kPageSize;
  header->next_page = kInvalidPageId;

  if (!pages_.empty()) {
    auto tail_guard = PageGuard::Fetch(*pool_, pages_.back());
    if (!tail_guard.ok()) return tail_guard.status();
    Header(tail_guard->MutableData())->next_page = guard->id();
  }
  pages_.push_back(guard->id());
  return guard;
}

Result<RecordId> HeapFile::Insert(std::string_view record) {
  if (record.empty()) {
    return Status::InvalidArgument("empty records are not supported");
  }
  if (record.size() > MaxRecordSize()) {
    return Status::InvalidArgument("record exceeds page capacity");
  }

  PageGuard guard;
  if (pages_.empty()) {
    auto fresh = AppendPage();
    if (!fresh.ok()) return fresh.status();
    guard = std::move(*fresh);
  } else {
    auto tail_guard = PageGuard::Fetch(*pool_, pages_.back());
    if (!tail_guard.ok()) return tail_guard.status();
    guard = std::move(*tail_guard);
  }

  char* data = guard.MutableData();
  HeapPageHeader* header = Header(data);
  Slot* slots = SlotArray(data);

  // Prefer reusing a tombstoned slot id (needs no directory growth).
  uint32_t slot_index = header->slot_count;
  size_t new_slots = 1;
  for (uint32_t s = 0; s < header->slot_count; ++s) {
    if (slots[s].length == 0) {
      slot_index = s;
      new_slots = 0;
      break;
    }
  }

  if (!Fits(header, record.size(), new_slots)) {
    CompactPage(data);
    if (!Fits(header, record.size(), new_slots)) {
      // Page genuinely full: start a fresh page.
      guard.Release();
      auto fresh = AppendPage();
      if (!fresh.ok()) return fresh.status();
      guard = std::move(*fresh);
      data = guard.MutableData();
      header = Header(data);
      slots = SlotArray(data);
      slot_index = 0;
      new_slots = 1;
    }
  }

  header->free_start -= static_cast<uint32_t>(record.size());
  std::memcpy(data + header->free_start, record.data(), record.size());
  if (new_slots == 1) ++header->slot_count;
  slots[slot_index].offset = static_cast<uint16_t>(header->free_start);
  slots[slot_index].length = static_cast<uint16_t>(record.size());
  ++size_;
  return RecordId{guard.id(), static_cast<uint16_t>(slot_index)};
}

Result<std::string> HeapFile::Get(const RecordId& rid) {
  auto guard = PageGuard::Fetch(*pool_, rid.page);
  if (!guard.ok()) return guard.status();
  const char* data = guard->Data();
  if (!IsLive(data, rid.slot)) {
    return Status::NotFound("no record at the given id");
  }
  const Slot& slot = SlotArray(data)[rid.slot];
  return std::string(data + slot.offset, slot.length);
}

Status HeapFile::Update(const RecordId& rid, std::string_view record) {
  if (record.empty() || record.size() > MaxRecordSize()) {
    return Status::InvalidArgument("bad record size");
  }
  auto guard = PageGuard::Fetch(*pool_, rid.page);
  if (!guard.ok()) return guard.status();
  if (!IsLive(guard->Data(), rid.slot)) {
    return Status::NotFound("no record at the given id");
  }
  char* data = guard->MutableData();
  HeapPageHeader* header = Header(data);
  Slot* slots = SlotArray(data);
  if (record.size() <= slots[rid.slot].length) {
    // Shrinking or same-size: overwrite in place.
    std::memcpy(data + slots[rid.slot].offset, record.data(), record.size());
    slots[rid.slot].length = static_cast<uint16_t>(record.size());
    return Status::Ok();
  }
  // Growing: tombstone the old copy, then allocate fresh space (compacting
  // if needed). The slot id must stay stable. Keep the old payload aside:
  // compaction discards tombstoned bytes, so a failed grow re-allocates it.
  std::string old_payload(data + slots[rid.slot].offset,
                          slots[rid.slot].length);
  slots[rid.slot].length = 0;
  if (!Fits(header, record.size(), 0)) CompactPage(data);
  std::string_view payload = record;
  bool fits = Fits(header, record.size(), 0);
  if (!fits) {
    // Roll back by re-allocating the old payload (it occupied this page a
    // moment ago, so post-compaction space is guaranteed to cover it).
    payload = old_payload;
  }
  header->free_start -= static_cast<uint32_t>(payload.size());
  std::memcpy(data + header->free_start, payload.data(), payload.size());
  slots[rid.slot].offset = static_cast<uint16_t>(header->free_start);
  slots[rid.slot].length = static_cast<uint16_t>(payload.size());
  if (!fits) {
    return Status::ResourceExhausted(
        "record does not fit in its page; delete and reinsert");
  }
  return Status::Ok();
}

Status HeapFile::Delete(const RecordId& rid) {
  auto guard = PageGuard::Fetch(*pool_, rid.page);
  if (!guard.ok()) return guard.status();
  if (!IsLive(guard->Data(), rid.slot)) {
    return Status::NotFound("no record at the given id");
  }
  SlotArray(guard->MutableData())[rid.slot].length = 0;
  --size_;
  return Status::Ok();
}

Status HeapFile::Scan(
    const std::function<bool(RecordId, std::string_view)>& visit) {
  for (size_t next = 0; next < pages_.size();) {
    const auto run = std::span(pages_).subspan(
        next, std::min(kScanRun, pages_.size() - next));
    std::array<PageGuard, kScanRun> guards;
    std::array<Page*, kScanRun> fixed{};
    Status status = pool_->FetchPages(run, std::span(fixed).first(run.size()));
    size_t fixed_count = run.size();
    if (status.code() == StatusCode::kResourceExhausted && run.size() > 1) {
      // The pool cannot spare a frame per page of the run: fix one alone.
      auto page = pool_->FetchPage(run.front());
      status = page.status();
      if (page.ok()) fixed[0] = *page;
      fixed_count = 1;
    }
    if (!status.ok()) return status;
    for (size_t i = 0; i < fixed_count; ++i) {
      guards[i] = PageGuard(pool_, fixed[i], /*dirty=*/false);
    }
    for (size_t i = 0; i < fixed_count; ++i) {
      const char* data = guards[i].Data();
      const HeapPageHeader* header = Header(data);
      const Slot* slots = SlotArray(data);
      for (uint32_t s = 0; s < header->slot_count; ++s) {
        if (slots[s].length == 0) continue;
        std::string_view record(data + slots[s].offset, slots[s].length);
        // The page's own id: a visitor that inserts may grow pages_ and
        // move `run`.
        if (!visit(RecordId{guards[i].id(), static_cast<uint16_t>(s)},
                   record)) {
          return Status::Ok();
        }
      }
      guards[i].Release();
    }
    next += fixed_count;
  }
  return Status::Ok();
}

}  // namespace lruk
