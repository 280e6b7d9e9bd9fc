// File-backed disk manager: page p lives at byte offset p * kPageSize.
// All operations are serialized by an internal latch (one shared FILE*
// cursor), so the manager is safe under a ShardedBufferPool, and RunBatch
// runs a batch in order on the caller's thread (MaxConcurrentIo is 1).
// The free list is kept in memory only (deallocated pages are reused within
// a process lifetime but not across restarts); allocation high-water mark
// is recovered from the file size on open.

#ifndef LRUK_STORAGE_FILE_DISK_MANAGER_H_
#define LRUK_STORAGE_FILE_DISK_MANAGER_H_

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "storage/disk_manager.h"

namespace lruk {

class FileDiskManager final : public DiskManager {
 public:
  // Opens (creating if needed) the database file at `path`. Check Valid()
  // before use; all operations fail cleanly on an invalid manager.
  explicit FileDiskManager(const std::string& path);
  ~FileDiskManager() override;

  bool Valid() const { return file_ != nullptr; }

  Status ReadPage(PageId p, char* out) override;
  Status WritePage(PageId p, const char* data) override;
  size_t MaxConcurrentIo() const override { return 1; }
  Result<PageId> AllocatePage() override;
  Status DeallocatePage(PageId p) override;
  uint64_t NumAllocatedPages() const override;

 private:
  mutable std::mutex latch_;
  std::string path_;
  std::FILE* file_ = nullptr;
  PageId next_page_id_ = 0;
  std::vector<PageId> free_list_;
};

}  // namespace lruk

#endif  // LRUK_STORAGE_FILE_DISK_MANAGER_H_
