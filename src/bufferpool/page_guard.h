// RAII pin management: a PageGuard unpins its page on destruction. Works
// over any PoolInterface (single-latch or sharded).
//
// Dirty-bit contract: reading a page never dirties it. The read accessors
// (Data(), As<T>()) return const views; the guard reports the page dirty
// at unpin only if it came from New() or handed out a mutable view
// (MutableData(), AsMut<T>()). A kWrite fetch is marked dirty by the pool.

#ifndef LRUK_BUFFERPOOL_PAGE_GUARD_H_
#define LRUK_BUFFERPOOL_PAGE_GUARD_H_

#include "bufferpool/pool_interface.h"
#include "bufferpool/page.h"
#include "util/status.h"

namespace lruk {

class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(PoolInterface* pool, Page* page, bool dirty);
  ~PageGuard();

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept;
  PageGuard& operator=(PageGuard&& other) noexcept;

  // Fetches `p` from `pool` and wraps it; `type` is passed to the pool.
  static Result<PageGuard> Fetch(PoolInterface& pool, PageId p,
                                 AccessType type = AccessType::kRead);

  // Allocates a new page and wraps it (already dirty).
  static Result<PageGuard> New(PoolInterface& pool);

  bool valid() const { return page_ != nullptr; }
  PageId id() const { return page_ != nullptr ? page_->id() : kInvalidPageId; }

  const char* Data() const { return page_->Data(); }
  template <typename T>
  const T* As() const {
    return page_->As<T>();
  }

  // Mutable views: each marks the page dirty.
  char* MutableData() {
    dirty_ = true;
    return page_->Data();
  }
  template <typename T>
  T* AsMut() {
    dirty_ = true;
    return page_->As<T>();
  }

  // Unpins now (destruction becomes a no-op).
  void Release();

 private:
  PoolInterface* pool_ = nullptr;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace lruk

#endif  // LRUK_BUFFERPOOL_PAGE_GUARD_H_
