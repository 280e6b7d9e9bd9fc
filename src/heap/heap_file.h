// Slotted-page heap file: variable-length records over the buffer pool,
// addressed by RecordId (page, slot). This is the "record pages" half of
// Example 1.1 as a real component: a clustered B+tree maps keys to
// RecordIds and the heap stores the 2,000-byte customer rows.
//
// Page layout (within the 4 KiB frame):
//   [HeapPageHeader][slot directory ...>    <... record data][end]
// Records are allocated from the page tail; the slot directory grows from
// the head. Deleting a record tombstones its slot (length 0); the slot id
// is reused by later inserts but freed record bytes are only reclaimed
// when the page is compacted (Compact(), or automatically when an insert
// needs the space).
//
// The heap chains pages through `next_page` (the on-disk structure a
// re-attach walks) and keeps the chain's page ids in memory too, in chain
// order: inserts go to the tail page, so they are O(1) amortized, and a
// full scan knows its next pages without reading them. A scan fixes its
// pages two at a time (PoolInterface::FetchPages), so a pool that reads a
// run's misses as one device batch (BufferPool) reads both pages in one
// device round; both stay pinned until visited (DESIGN.md §8 "Runs").

#ifndef LRUK_HEAP_HEAP_FILE_H_
#define LRUK_HEAP_HEAP_FILE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bufferpool/pool_interface.h"
#include "bufferpool/page_guard.h"
#include "util/status.h"

namespace lruk {

// Identifies a record: the page holding it and its slot index.
struct RecordId {
  PageId page = kInvalidPageId;
  uint16_t slot = 0;

  friend bool operator==(const RecordId&, const RecordId&) = default;

  // Packs into a uint64 (for storing RecordIds as B+tree values). The page
  // id must fit in 48 bits.
  uint64_t Pack() const { return (page << 16) | slot; }
  static RecordId Unpack(uint64_t packed) {
    return RecordId{packed >> 16, static_cast<uint16_t>(packed & 0xFFFF)};
  }
};

class HeapFile {
 public:
  // `pool` must outlive the heap. Pass `head` to re-attach to an existing
  // chain; kInvalidPageId starts a new (empty) heap.
  explicit HeapFile(PoolInterface* pool, PageId head = kInvalidPageId);
  LRUK_DISALLOW_COPY_AND_MOVE(HeapFile);

  // Appends a record; returns its address. Fails with INVALID_ARGUMENT if
  // the record cannot fit in a page even when empty, or if it is empty.
  Result<RecordId> Insert(std::string_view record);

  // Reads a record. kNotFound for tombstoned or never-allocated ids.
  Result<std::string> Get(const RecordId& rid);

  // Overwrites a record in place when the new payload fits in the old
  // space (or the page has room); otherwise fails with RESOURCE_EXHAUSTED
  // and the caller should Delete + Insert.
  Status Update(const RecordId& rid, std::string_view record);

  // Tombstones a record. kNotFound if absent.
  Status Delete(const RecordId& rid);

  // Visits every live record in chain order; the visitor returns false to
  // stop early. Fixes the pages in runs of two; a run the pool cannot
  // spare the frames for (RESOURCE_EXHAUSTED) is fixed one page at a time.
  // A page is unpinned once visited, and no pin outlives the call.
  Status Scan(
      const std::function<bool(RecordId, std::string_view)>& visit);

  // Number of live records.
  uint64_t Size() const { return size_; }
  // First page of the chain (persist this to re-attach).
  PageId HeadPageId() const {
    return pages_.empty() ? kInvalidPageId : pages_.front();
  }
  // Pages in the chain.
  uint64_t CountPages() const { return pages_.size(); }

  // Capacity of an empty page (the largest insertable record).
  static size_t MaxRecordSize();

 private:
  Result<PageGuard> AppendPage();

  PoolInterface* pool_;
  // The chain's page ids in chain order; the tail page is the last.
  std::vector<PageId> pages_;
  uint64_t size_ = 0;
};

}  // namespace lruk

#endif  // LRUK_HEAP_HEAP_FILE_H_
