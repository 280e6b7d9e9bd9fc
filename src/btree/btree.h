// A disk-page B+tree (uint64 keys -> uint64 values) living entirely on top
// of the BufferPool, so every tree operation generates the index/record
// reference pattern of the paper's Example 1.1 through the replacement
// policy under test.
//
// Features: point insert (duplicate keys rejected), point lookup, delete
// with borrow/merge rebalancing, ordered range scans via the leaf sibling
// chain, and an invariant checker used by the tests.
//
// Node capacities default to what a 4 KiB page can physically hold but can
// be lowered (BTreeOptions) to reproduce specific geometries — Example 1.1
// packs 200 index entries per leaf, giving exactly 100 leaves for 20,000
// records.
//
// The root page id lives in the BTree object; callers that persist the
// database re-attach with the `root` constructor argument.

#ifndef LRUK_BTREE_BTREE_H_
#define LRUK_BTREE_BTREE_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "bufferpool/pool_interface.h"
#include "bufferpool/page_guard.h"
#include "btree/btree_page.h"
#include "util/status.h"

namespace lruk {

struct BTreeOptions {
  // 0 = use the physical page capacity. Values are clamped to it.
  size_t leaf_capacity = 0;
  size_t internal_capacity = 0;
  // Rightmost-leaf split optimization: when an insert appends past the end
  // of the rightmost (tail) leaf, keep that leaf full and start the new
  // leaf with just the appended key. Ascending loads then produce packed
  // leaves (Example 1.1's "packed full" pages: 20,000 keys at 200 per leaf
  // = exactly 100 leaves) instead of half-full ones. The tail leaf is
  // exempt from the minimum-occupancy invariant, as in bulk-loaded trees.
  bool pack_sequential_inserts = true;
};

class BTree {
 public:
  // `pool` must outlive the tree. Pass `root` to re-attach to an existing
  // tree; kInvalidPageId starts empty.
  explicit BTree(PoolInterface* pool, BTreeOptions options = {},
                 PageId root = kInvalidPageId);
  LRUK_DISALLOW_COPY_AND_MOVE(BTree);

  // Inserts a new key. kAlreadyExists if the key is present.
  Status Insert(uint64_t key, uint64_t value);

  // Looks a key up. kNotFound if absent.
  Result<uint64_t> Get(uint64_t key);

  // Overwrites an existing key's value in place. kNotFound if absent.
  Status Update(uint64_t key, uint64_t value);

  // Removes a key. kNotFound if absent.
  Status Delete(uint64_t key);

  // Visits all pairs with lo <= key <= hi in ascending order. The visitor
  // returns false to stop early.
  Status Scan(uint64_t lo, uint64_t hi,
              const std::function<bool(uint64_t key, uint64_t value)>& visit);

  // Collects a bounded range into a vector (convenience over Scan).
  Result<std::vector<std::pair<uint64_t, uint64_t>>> Range(uint64_t lo,
                                                           uint64_t hi);

  uint64_t Size() const { return size_; }
  bool Empty() const { return root_ == kInvalidPageId; }
  PageId RootPageId() const { return root_; }

  // Structural self-check: key order, occupancy bounds, uniform depth,
  // child separation, leaf chain consistency. Returns the first violation.
  Status CheckInvariants();

  // Number of tree pages (leaves + internals); walks the tree.
  Result<uint64_t> CountPages();

  // Page ids of every leaf, left to right (benches classify buffer
  // composition with this).
  Result<std::vector<PageId>> LeafPageIds();

  size_t leaf_capacity() const { return leaf_capacity_; }
  size_t internal_capacity() const { return internal_capacity_; }

 private:
  struct SplitResult {
    uint64_t separator;
    PageId right;
  };

  Result<PageGuard> NewLeaf();
  Result<PageGuard> NewInternal();

  // Descends for lookup; returns the leaf guard containing key's position.
  Result<PageGuard> FindLeaf(uint64_t key);

  // Recursive insert. On split, fills `*split` with the new right sibling.
  Status InsertRec(PageId node, uint64_t key, uint64_t value,
                   std::optional<SplitResult>* split);

  // Recursive delete. Sets `*underflow` when the node dropped below its
  // minimum occupancy and needs parent-side rebalancing.
  Status DeleteRec(PageId node, uint64_t key, bool* underflow);

  // Rebalances `parent`'s child at `child_index` (which underflowed) by
  // borrowing from or merging with a sibling.
  Status RebalanceChild(BTreeInternalPage* parent, PageGuard& parent_guard,
                        size_t child_index, bool* parent_underflow);

  Status CheckRec(PageId node, uint64_t lo, uint64_t hi, int depth,
                  int* leaf_depth, PageId* prev_leaf, uint64_t* prev_key,
                  bool is_root);

  size_t LeafMin() const { return leaf_capacity_ / 2; }
  size_t InternalMin() const { return internal_capacity_ / 2; }

  PoolInterface* pool_;
  BTreeOptions options_;
  size_t leaf_capacity_;
  size_t internal_capacity_;
  PageId root_;
  uint64_t size_ = 0;
};

}  // namespace lruk

#endif  // LRUK_BTREE_BTREE_H_
