// A buffer frame's in-memory page image plus its control metadata.

#ifndef LRUK_BUFFERPOOL_PAGE_H_
#define LRUK_BUFFERPOOL_PAGE_H_

#include <atomic>
#include <cstring>
#include <memory>

#include "core/types.h"
#include "storage/disk_manager.h"
#include "util/macros.h"

namespace lruk {

class BufferPool;

// One buffer slot. Lifetime and pinning are managed by BufferPool; user
// code receives Page* from FetchPage/NewPage and must Unpin when done
// (or hold a PageGuard, which does it automatically).
//
// pin_count_ and dirty_ are atomics because every pool's hits and unpins
// pin, unpin and dirty frames without the pool latch, and the pin count
// is the only record of pins (the policy is never told). Two rules keep
// the counts exact:
//  * pin_count_ is only ever modified with fetch_add/fetch_sub/CAS,
//    never store() — a stale latch-free reader may hold a transient +1
//    on any frame (undone after validation fails), and a blind store
//    would erase it.
//  * id_ stays a plain field: it is written only under the pool latch
//    while the page-table bucket is locked (odd version), and the
//    bucket-version validation orders those writes before any latch-free
//    reader's access.
class Page {
 public:
  Page() : data_(std::make_unique<char[]>(kPageSize)) {}
  LRUK_DISALLOW_COPY_AND_MOVE(Page);

  PageId id() const { return id_; }
  int pin_count() const { return pin_count_.load(std::memory_order_relaxed); }
  bool is_dirty() const { return dirty_.load(std::memory_order_relaxed); }

  char* Data() { return data_.get(); }
  const char* Data() const { return data_.get(); }

  // Reinterprets the page image as a struct layout. T must be trivially
  // copyable and fit in a page.
  template <typename T>
  T* As() {
    static_assert(sizeof(T) <= kPageSize, "layout exceeds the page size");
    return reinterpret_cast<T*>(data_.get());
  }
  template <typename T>
  const T* As() const {
    static_assert(sizeof(T) <= kPageSize, "layout exceeds the page size");
    return reinterpret_cast<const T*>(data_.get());
  }

  void ZeroFill() { std::memset(data_.get(), 0, kPageSize); }

 private:
  friend class BufferPool;

  std::unique_ptr<char[]> data_;
  PageId id_ = kInvalidPageId;
  std::atomic<int> pin_count_{0};
  std::atomic<bool> dirty_{false};
};

}  // namespace lruk

#endif  // LRUK_BUFFERPOOL_PAGE_H_
