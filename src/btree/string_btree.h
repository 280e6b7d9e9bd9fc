// Disk-page B+tree over variable-length byte-string keys (uint64 values),
// on the buffer pool — the general-purpose sibling of the fixed-key BTree.
// Where BTree matches Example 1.1's integer CUST-ID geometry exactly, this
// tree serves the paper's broader setting (Section 5's "post-relational"
// databases) where keys are strings and entries vary in size.
//
// Node layout (within the 4 KiB frame): a slot directory grows from the
// head, key bytes (plus an 8-byte value on leaves / a child PageId on
// internals) are allocated from the tail, and the slot directory is kept
// sorted by key so lookups binary-search the slots.
//
// Deletes are lazy, PostgreSQL-nbtree-style: an entry is removed from its
// leaf but nodes are never merged or rebalanced; underfull (even empty)
// leaves simply persist until the tree is rebuilt offline. Inserts split
// nodes by entry count, which always fits because a single entry is
// bounded by kMaxKeySize + overhead (enforced at Insert).

#ifndef LRUK_BTREE_STRING_BTREE_H_
#define LRUK_BTREE_STRING_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bufferpool/pool_interface.h"
#include "bufferpool/page_guard.h"
#include "util/status.h"

namespace lruk {

class StringBTree {
 public:
  // Largest accepted key, chosen so any four entries fit in a node.
  static constexpr size_t kMaxKeySize = 512;

  // `pool` must outlive the tree; pass `root` to re-attach.
  explicit StringBTree(PoolInterface* pool, PageId root = kInvalidPageId);
  LRUK_DISALLOW_COPY_AND_MOVE(StringBTree);

  // Inserts a new key. kAlreadyExists if present; kInvalidArgument for an
  // empty or oversized key.
  Status Insert(std::string_view key, uint64_t value);

  // Point lookup. kNotFound if absent.
  Result<uint64_t> Get(std::string_view key);

  // Overwrites an existing key's value. kNotFound if absent.
  Status Update(std::string_view key, uint64_t value);

  // Removes a key (lazy: no rebalancing). kNotFound if absent.
  Status Delete(std::string_view key);

  // Visits pairs with lo <= key <= hi in ascending key order; the visitor
  // returns false to stop.
  Status Scan(std::string_view lo, std::string_view hi,
              const std::function<bool(std::string_view, uint64_t)>& visit);

  uint64_t Size() const { return size_; }
  bool Empty() const { return root_ == kInvalidPageId; }
  PageId RootPageId() const { return root_; }

  // Structural self-check: slot order, in-node sortedness, separator
  // bounds, uniform leaf depth, sibling chain. Returns the first
  // violation.
  Status CheckInvariants();

 private:
  struct SplitResult {
    std::string separator;  // Smallest key of the new right node.
    PageId right;
  };

  Result<PageGuard> NewNode(bool leaf);
  Status InsertRec(PageId node, std::string_view key, uint64_t value,
                   std::optional<SplitResult>* split);
  // Returns the leaf that would contain `key`.
  Result<PageGuard> FindLeaf(std::string_view key);

  Status CheckRec(PageId node, std::string_view lo,
                  std::optional<std::string> hi, int depth, int* leaf_depth,
                  PageId* prev_leaf, std::string* prev_key);

  PoolInterface* pool_;
  PageId root_;
  uint64_t size_ = 0;
};

}  // namespace lruk

#endif  // LRUK_BTREE_STRING_BTREE_H_
