#include "bufferpool/page_guard.h"

#include <utility>

namespace lruk {

PageGuard::PageGuard(PoolInterface* pool, Page* page, bool dirty)
    : pool_(pool), page_(page), dirty_(dirty) {}

PageGuard::~PageGuard() { Release(); }

PageGuard::PageGuard(PageGuard&& other) noexcept
    : pool_(std::exchange(other.pool_, nullptr)),
      page_(std::exchange(other.page_, nullptr)),
      dirty_(std::exchange(other.dirty_, false)) {}

PageGuard& PageGuard::operator=(PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = std::exchange(other.pool_, nullptr);
    page_ = std::exchange(other.page_, nullptr);
    dirty_ = std::exchange(other.dirty_, false);
  }
  return *this;
}

Result<PageGuard> PageGuard::Fetch(PoolInterface& pool, PageId p,
                                   AccessType type) {
  auto page = pool.FetchPage(p, type);
  if (!page.ok()) return page.status();
  return PageGuard(&pool, *page, /*dirty=*/false);
}

Result<PageGuard> PageGuard::New(PoolInterface& pool) {
  auto page = pool.NewPage();
  if (!page.ok()) return page.status();
  return PageGuard(&pool, *page, /*dirty=*/true);
}

void PageGuard::Release() {
  if (page_ != nullptr) {
    // UnpinPage performs no I/O (write-back happens at eviction or flush
    // time), so there is no fault path here: the unpin can only fail on
    // protocol misuse, which the guard rules out. A failed Fetch/New never
    // constructs a guard, so a guard never holds a pin the pool rolled
    // back.
    Status status = pool_->UnpinPage(page_->id(), dirty_);
    LRUK_ASSERT(status.ok(), status.ToString().c_str());
    pool_ = nullptr;
    page_ = nullptr;
    dirty_ = false;
  }
}

}  // namespace lruk
