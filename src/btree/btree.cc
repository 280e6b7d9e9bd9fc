#include "btree/btree.h"

#include <algorithm>
#include <cstring>

namespace lruk {

namespace {

// Index of the first slot with slot.key >= key.
size_t LeafLowerBound(const BTreeLeafPage* leaf, uint64_t key) {
  size_t lo = 0;
  size_t hi = leaf->header.count;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (leaf->slots[mid].key < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child subtree that covers `key`: the number of separators <= key.
size_t ChildIndexFor(const BTreeInternalPage* node, uint64_t key) {
  size_t lo = 0;
  size_t hi = node->header.count;
  while (lo < hi) {
    size_t mid = lo + (hi - lo) / 2;
    if (node->keys[mid] <= key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

BTree::BTree(PoolInterface* pool, BTreeOptions options, PageId root)
    : pool_(pool), options_(options), root_(root) {
  LRUK_ASSERT(pool_ != nullptr, "BTree needs a buffer pool");
  leaf_capacity_ = options.leaf_capacity == 0
                       ? kLeafPhysicalCapacity
                       : std::min(options.leaf_capacity, kLeafPhysicalCapacity);
  internal_capacity_ =
      options.internal_capacity == 0
          ? kInternalPhysicalCapacity
          : std::min(options.internal_capacity, kInternalPhysicalCapacity);
  LRUK_ASSERT(leaf_capacity_ >= 2, "leaf capacity must be at least 2");
  LRUK_ASSERT(internal_capacity_ >= 2, "internal capacity must be at least 2");
}

Result<PageGuard> BTree::NewLeaf() {
  auto guard = PageGuard::New(*pool_);
  if (!guard.ok()) return guard.status();
  auto* leaf = guard->AsMut<BTreeLeafPage>();
  leaf->header.type = BTreeNodeType::kLeaf;
  leaf->header.count = 0;
  leaf->next_leaf = kInvalidPageId;
  return guard;
}

Result<PageGuard> BTree::NewInternal() {
  auto guard = PageGuard::New(*pool_);
  if (!guard.ok()) return guard.status();
  auto* node = guard->AsMut<BTreeInternalPage>();
  node->header.type = BTreeNodeType::kInternal;
  node->header.count = 0;
  return guard;
}

Result<PageGuard> BTree::FindLeaf(uint64_t key) {
  if (root_ == kInvalidPageId) {
    return Status::NotFound("tree is empty");
  }
  auto guard = PageGuard::Fetch(*pool_, root_);
  if (!guard.ok()) return guard.status();
  PageGuard current = std::move(*guard);
  while (current.As<BTreeNodeHeader>()->type == BTreeNodeType::kInternal) {
    const auto* node = current.As<BTreeInternalPage>();
    PageId child = node->children[ChildIndexFor(node, key)];
    auto next = PageGuard::Fetch(*pool_, child);
    if (!next.ok()) return next.status();
    current = std::move(*next);  // Parent unpins here.
  }
  return current;
}

Status BTree::Insert(uint64_t key, uint64_t value) {
  if (root_ == kInvalidPageId) {
    auto guard = NewLeaf();
    if (!guard.ok()) return guard.status();
    auto* leaf = guard->AsMut<BTreeLeafPage>();
    leaf->slots[0] = {key, value};
    leaf->header.count = 1;
    root_ = guard->id();
    size_ = 1;
    return Status::Ok();
  }

  std::optional<SplitResult> split;
  LRUK_RETURN_IF_ERROR(InsertRec(root_, key, value, &split));
  ++size_;
  if (split.has_value()) {
    // Grow the tree: a new root over the old root and the split sibling.
    auto guard = NewInternal();
    if (!guard.ok()) return guard.status();
    auto* node = guard->AsMut<BTreeInternalPage>();
    node->keys[0] = split->separator;
    node->children[0] = root_;
    node->children[1] = split->right;
    node->header.count = 1;
    root_ = guard->id();
  }
  return Status::Ok();
}

Status BTree::InsertRec(PageId node_id, uint64_t key, uint64_t value,
                        std::optional<SplitResult>* split) {
  auto guard = PageGuard::Fetch(*pool_, node_id);
  if (!guard.ok()) return guard.status();

  if (guard->As<BTreeNodeHeader>()->type == BTreeNodeType::kLeaf) {
    const auto* leaf_ro = guard->As<BTreeLeafPage>();
    size_t pos = LeafLowerBound(leaf_ro, key);
    if (pos < leaf_ro->header.count && leaf_ro->slots[pos].key == key) {
      return Status::AlreadyExists("key " + std::to_string(key));
    }
    auto* leaf = guard->AsMut<BTreeLeafPage>();
    if (leaf->header.count < leaf_capacity_) {
      std::memmove(&leaf->slots[pos + 1], &leaf->slots[pos],
                   (leaf->header.count - pos) * sizeof(BTreeLeafPage::Slot));
      leaf->slots[pos] = {key, value};
      ++leaf->header.count;
      return Status::Ok();
    }

    // Leaf split: distribute count+1 slots across old (left) and new
    // (right) leaves via a merged temporary.
    std::vector<BTreeLeafPage::Slot> merged(leaf->header.count + 1);
    std::memcpy(merged.data(), leaf->slots, pos * sizeof(merged[0]));
    merged[pos] = {key, value};
    std::memcpy(merged.data() + pos + 1, &leaf->slots[pos],
                (leaf->header.count - pos) * sizeof(merged[0]));

    auto right_guard = NewLeaf();
    if (!right_guard.ok()) return right_guard.status();
    auto* right = right_guard->AsMut<BTreeLeafPage>();

    size_t left_count = merged.size() - merged.size() / 2;  // Ceil half.
    if (options_.pack_sequential_inserts &&
        leaf->next_leaf == kInvalidPageId && pos == leaf->header.count) {
      // Appending to the tail leaf: keep it packed, push only the new key
      // right (see BTreeOptions::pack_sequential_inserts).
      left_count = merged.size() - 1;
    }
    size_t right_count = merged.size() - left_count;
    std::memcpy(leaf->slots, merged.data(), left_count * sizeof(merged[0]));
    leaf->header.count = static_cast<uint32_t>(left_count);
    std::memcpy(right->slots, merged.data() + left_count,
                right_count * sizeof(merged[0]));
    right->header.count = static_cast<uint32_t>(right_count);
    right->next_leaf = leaf->next_leaf;
    leaf->next_leaf = right_guard->id();

    *split = SplitResult{right->slots[0].key, right_guard->id()};
    return Status::Ok();
  }

  // Internal node: descend, then absorb a possible child split.
  size_t child_index = ChildIndexFor(guard->As<BTreeInternalPage>(), key);
  PageId child = guard->As<BTreeInternalPage>()->children[child_index];
  std::optional<SplitResult> child_split;
  LRUK_RETURN_IF_ERROR(InsertRec(child, key, value, &child_split));
  if (!child_split.has_value()) return Status::Ok();

  auto* node = guard->AsMut<BTreeInternalPage>();
  if (node->header.count < internal_capacity_) {
    std::memmove(&node->keys[child_index + 1], &node->keys[child_index],
                 (node->header.count - child_index) * sizeof(uint64_t));
    std::memmove(&node->children[child_index + 2],
                 &node->children[child_index + 1],
                 (node->header.count - child_index) * sizeof(PageId));
    node->keys[child_index] = child_split->separator;
    node->children[child_index + 1] = child_split->right;
    ++node->header.count;
    return Status::Ok();
  }

  // Internal split: merge in the new separator, promote the middle key.
  size_t old_count = node->header.count;
  std::vector<uint64_t> keys(old_count + 1);
  std::vector<PageId> children(old_count + 2);
  std::memcpy(keys.data(), node->keys, child_index * sizeof(uint64_t));
  keys[child_index] = child_split->separator;
  std::memcpy(keys.data() + child_index + 1, &node->keys[child_index],
              (old_count - child_index) * sizeof(uint64_t));
  std::memcpy(children.data(), node->children,
              (child_index + 1) * sizeof(PageId));
  children[child_index + 1] = child_split->right;
  std::memcpy(children.data() + child_index + 2,
              &node->children[child_index + 1],
              (old_count - child_index) * sizeof(PageId));

  auto right_guard = NewInternal();
  if (!right_guard.ok()) return right_guard.status();
  auto* right = right_guard->AsMut<BTreeInternalPage>();

  size_t promote = keys.size() / 2;
  size_t left_keys = promote;
  size_t right_keys = keys.size() - promote - 1;

  std::memcpy(node->keys, keys.data(), left_keys * sizeof(uint64_t));
  std::memcpy(node->children, children.data(),
              (left_keys + 1) * sizeof(PageId));
  node->header.count = static_cast<uint32_t>(left_keys);

  std::memcpy(right->keys, keys.data() + promote + 1,
              right_keys * sizeof(uint64_t));
  std::memcpy(right->children, children.data() + promote + 1,
              (right_keys + 1) * sizeof(PageId));
  right->header.count = static_cast<uint32_t>(right_keys);

  *split = SplitResult{keys[promote], right_guard->id()};
  return Status::Ok();
}

Result<uint64_t> BTree::Get(uint64_t key) {
  auto leaf_guard = FindLeaf(key);
  if (!leaf_guard.ok()) {
    if (leaf_guard.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("key " + std::to_string(key));
    }
    return leaf_guard.status();
  }
  const auto* leaf = leaf_guard->As<BTreeLeafPage>();
  size_t pos = LeafLowerBound(leaf, key);
  if (pos < leaf->header.count && leaf->slots[pos].key == key) {
    return leaf->slots[pos].value;
  }
  return Status::NotFound("key " + std::to_string(key));
}

Status BTree::Update(uint64_t key, uint64_t value) {
  // Traverse read-only; AsMut dirties just the leaf.
  auto leaf_guard = FindLeaf(key);
  if (!leaf_guard.ok()) {
    if (leaf_guard.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("key " + std::to_string(key));
    }
    return leaf_guard.status();
  }
  const auto* leaf_ro = leaf_guard->As<BTreeLeafPage>();
  size_t pos = LeafLowerBound(leaf_ro, key);
  if (pos >= leaf_ro->header.count || leaf_ro->slots[pos].key != key) {
    return Status::NotFound("key " + std::to_string(key));
  }
  leaf_guard->AsMut<BTreeLeafPage>()->slots[pos].value = value;
  return Status::Ok();
}

Status BTree::Scan(
    uint64_t lo, uint64_t hi,
    const std::function<bool(uint64_t key, uint64_t value)>& visit) {
  if (lo > hi) return Status::InvalidArgument("scan range is inverted");
  if (root_ == kInvalidPageId) return Status::Ok();
  auto leaf_guard = FindLeaf(lo);
  if (!leaf_guard.ok()) return leaf_guard.status();
  PageGuard current = std::move(*leaf_guard);
  size_t pos = LeafLowerBound(current.As<BTreeLeafPage>(), lo);
  while (true) {
    const auto* leaf = current.As<BTreeLeafPage>();
    for (; pos < leaf->header.count; ++pos) {
      if (leaf->slots[pos].key > hi) return Status::Ok();
      if (!visit(leaf->slots[pos].key, leaf->slots[pos].value)) {
        return Status::Ok();
      }
    }
    if (leaf->next_leaf == kInvalidPageId) return Status::Ok();
    auto next = PageGuard::Fetch(*pool_, leaf->next_leaf);
    if (!next.ok()) return next.status();
    current = std::move(*next);
    pos = 0;
  }
}

Result<std::vector<std::pair<uint64_t, uint64_t>>> BTree::Range(uint64_t lo,
                                                                uint64_t hi) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  Status status = Scan(lo, hi, [&out](uint64_t k, uint64_t v) {
    out.emplace_back(k, v);
    return true;
  });
  if (!status.ok()) return status;
  return out;
}

Status BTree::Delete(uint64_t key) {
  if (root_ == kInvalidPageId) {
    return Status::NotFound("key " + std::to_string(key));
  }
  bool underflow = false;
  LRUK_RETURN_IF_ERROR(DeleteRec(root_, key, &underflow));
  --size_;

  // Root adjustments: an empty leaf root disappears; an internal root with
  // no separators collapses onto its only child.
  auto guard = PageGuard::Fetch(*pool_, root_);
  if (!guard.ok()) return guard.status();
  const auto* header = guard->As<BTreeNodeHeader>();
  if (header->type == BTreeNodeType::kLeaf) {
    if (header->count == 0) {
      PageId dead = root_;
      root_ = kInvalidPageId;
      guard->Release();
      return pool_->DeletePage(dead);
    }
  } else if (header->count == 0) {
    PageId dead = root_;
    root_ = guard->As<BTreeInternalPage>()->children[0];
    guard->Release();
    return pool_->DeletePage(dead);
  }
  return Status::Ok();
}

Status BTree::DeleteRec(PageId node_id, uint64_t key, bool* underflow) {
  auto guard = PageGuard::Fetch(*pool_, node_id);
  if (!guard.ok()) return guard.status();

  if (guard->As<BTreeNodeHeader>()->type == BTreeNodeType::kLeaf) {
    const auto* leaf_ro = guard->As<BTreeLeafPage>();
    size_t pos = LeafLowerBound(leaf_ro, key);
    if (pos >= leaf_ro->header.count || leaf_ro->slots[pos].key != key) {
      return Status::NotFound("key " + std::to_string(key));
    }
    auto* leaf = guard->AsMut<BTreeLeafPage>();
    std::memmove(&leaf->slots[pos], &leaf->slots[pos + 1],
                 (leaf->header.count - pos - 1) * sizeof(BTreeLeafPage::Slot));
    --leaf->header.count;
    *underflow = leaf->header.count < LeafMin();
    return Status::Ok();
  }

  size_t child_index = ChildIndexFor(guard->As<BTreeInternalPage>(), key);
  PageId child = guard->As<BTreeInternalPage>()->children[child_index];
  bool child_underflow = false;
  LRUK_RETURN_IF_ERROR(DeleteRec(child, key, &child_underflow));
  if (child_underflow) {
    auto* node = guard->AsMut<BTreeInternalPage>();
    LRUK_RETURN_IF_ERROR(
        RebalanceChild(node, *guard, child_index, underflow));
  } else {
    *underflow = false;
  }
  return Status::Ok();
}

Status BTree::RebalanceChild(BTreeInternalPage* parent,
                             PageGuard& /*parent_guard*/, size_t child_index,
                             bool* parent_underflow) {
  // Prefer the left sibling (merge target convention: merge into the left
  // node of the pair).
  size_t left_index = child_index > 0 ? child_index - 1 : child_index;
  size_t right_index = left_index + 1;
  LRUK_ASSERT(right_index <= parent->header.count,
              "rebalance needs two children");

  auto left_guard = PageGuard::Fetch(*pool_, parent->children[left_index]);
  if (!left_guard.ok()) return left_guard.status();
  auto right_guard = PageGuard::Fetch(*pool_, parent->children[right_index]);
  if (!right_guard.ok()) return right_guard.status();

  size_t sep = left_index;  // parent->keys[sep] separates the pair.
  bool is_leaf =
      left_guard->As<BTreeNodeHeader>()->type == BTreeNodeType::kLeaf;

  if (is_leaf) {
    auto* left = left_guard->AsMut<BTreeLeafPage>();
    auto* right = right_guard->AsMut<BTreeLeafPage>();
    bool child_is_left = child_index == left_index;

    if (child_is_left && right->header.count > LeafMin()) {
      // Borrow the right sibling's first slot.
      left->slots[left->header.count] = right->slots[0];
      ++left->header.count;
      std::memmove(&right->slots[0], &right->slots[1],
                   (right->header.count - 1) * sizeof(BTreeLeafPage::Slot));
      --right->header.count;
      parent->keys[sep] = right->slots[0].key;
      *parent_underflow = false;
      return Status::Ok();
    }
    if (!child_is_left && left->header.count > LeafMin()) {
      // Borrow the left sibling's last slot.
      std::memmove(&right->slots[1], &right->slots[0],
                   right->header.count * sizeof(BTreeLeafPage::Slot));
      right->slots[0] = left->slots[left->header.count - 1];
      ++right->header.count;
      --left->header.count;
      parent->keys[sep] = right->slots[0].key;
      *parent_underflow = false;
      return Status::Ok();
    }

    // Merge right into left.
    std::memcpy(&left->slots[left->header.count], right->slots,
                right->header.count * sizeof(BTreeLeafPage::Slot));
    left->header.count += right->header.count;
    left->next_leaf = right->next_leaf;
  } else {
    auto* left = left_guard->AsMut<BTreeInternalPage>();
    auto* right = right_guard->AsMut<BTreeInternalPage>();
    bool child_is_left = child_index == left_index;

    if (child_is_left && right->header.count > InternalMin()) {
      // Rotate left through the parent separator.
      left->keys[left->header.count] = parent->keys[sep];
      left->children[left->header.count + 1] = right->children[0];
      ++left->header.count;
      parent->keys[sep] = right->keys[0];
      std::memmove(&right->keys[0], &right->keys[1],
                   (right->header.count - 1) * sizeof(uint64_t));
      std::memmove(&right->children[0], &right->children[1],
                   right->header.count * sizeof(PageId));
      --right->header.count;
      *parent_underflow = false;
      return Status::Ok();
    }
    if (!child_is_left && left->header.count > InternalMin()) {
      // Rotate right through the parent separator.
      std::memmove(&right->keys[1], &right->keys[0],
                   right->header.count * sizeof(uint64_t));
      std::memmove(&right->children[1], &right->children[0],
                   (right->header.count + 1) * sizeof(PageId));
      right->keys[0] = parent->keys[sep];
      right->children[0] = left->children[left->header.count];
      ++right->header.count;
      parent->keys[sep] = left->keys[left->header.count - 1];
      --left->header.count;
      *parent_underflow = false;
      return Status::Ok();
    }

    // Merge right into left, pulling the separator down.
    left->keys[left->header.count] = parent->keys[sep];
    std::memcpy(&left->keys[left->header.count + 1], right->keys,
                right->header.count * sizeof(uint64_t));
    std::memcpy(&left->children[left->header.count + 1], right->children,
                (right->header.count + 1) * sizeof(PageId));
    left->header.count += right->header.count + 1;
  }

  // Remove the separator and the right child from the parent.
  PageId dead = right_guard->id();
  right_guard->Release();
  left_guard->Release();
  std::memmove(&parent->keys[sep], &parent->keys[sep + 1],
               (parent->header.count - sep - 1) * sizeof(uint64_t));
  std::memmove(&parent->children[right_index],
               &parent->children[right_index + 1],
               (parent->header.count - right_index) * sizeof(PageId));
  --parent->header.count;
  *parent_underflow = parent->header.count < InternalMin();
  return pool_->DeletePage(dead);
}

Status BTree::CheckRec(PageId node_id, uint64_t lo, uint64_t hi, int depth,
                       int* leaf_depth, PageId* prev_leaf, uint64_t* prev_key,
                       bool is_root) {
  auto guard = PageGuard::Fetch(*pool_, node_id);
  if (!guard.ok()) return guard.status();
  const auto* header = guard->As<BTreeNodeHeader>();

  if (header->type == BTreeNodeType::kLeaf) {
    const auto* leaf = guard->As<BTreeLeafPage>();
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at different depths");
    }
    // The tail leaf may be underfull when pack_sequential_inserts is on
    // (bulk-load convention); every other non-root leaf honors the minimum.
    bool is_tail = leaf->next_leaf == kInvalidPageId;
    if (!is_root && !is_tail && leaf->header.count < LeafMin()) {
      return Status::Internal("leaf below minimum occupancy");
    }
    if (leaf->header.count > leaf_capacity_) {
      return Status::Internal("leaf above capacity");
    }
    for (size_t i = 0; i < leaf->header.count; ++i) {
      uint64_t k = leaf->slots[i].key;
      if (k < lo || k > hi) return Status::Internal("leaf key out of bounds");
      if (i > 0 && leaf->slots[i - 1].key >= k) {
        return Status::Internal("leaf keys not strictly ascending");
      }
      if (*prev_leaf != kInvalidPageId || i > 0) {
        if (*prev_key >= k) {
          return Status::Internal("global key order violated");
        }
      }
      *prev_key = k;
    }
    // The in-order predecessor leaf must chain to this one.
    if (*prev_leaf != kInvalidPageId) {
      auto prev_guard = PageGuard::Fetch(*pool_, *prev_leaf);
      if (!prev_guard.ok()) return prev_guard.status();
      if (prev_guard->As<BTreeLeafPage>()->next_leaf != node_id) {
        return Status::Internal("broken leaf sibling chain");
      }
    }
    *prev_leaf = node_id;
    return Status::Ok();
  }

  if (header->type != BTreeNodeType::kInternal) {
    return Status::Internal("node with invalid type tag");
  }
  const auto* node = guard->As<BTreeInternalPage>();
  if (!is_root && node->header.count < InternalMin()) {
    return Status::Internal("internal node below minimum occupancy");
  }
  if (is_root && node->header.count < 1) {
    return Status::Internal("internal root without separators");
  }
  if (node->header.count > internal_capacity_) {
    return Status::Internal("internal node above capacity");
  }
  for (size_t i = 0; i < node->header.count; ++i) {
    uint64_t k = node->keys[i];
    if (k < lo || k > hi) {
      return Status::Internal("separator out of bounds");
    }
    if (i > 0 && node->keys[i - 1] >= k) {
      return Status::Internal("separators not strictly ascending");
    }
  }
  // Copy what recursion needs before the guard is released.
  uint32_t count = node->header.count;
  std::vector<uint64_t> keys(node->keys, node->keys + count);
  std::vector<PageId> children(node->children, node->children + count + 1);
  guard->Release();

  for (size_t i = 0; i <= count; ++i) {
    uint64_t child_lo = i == 0 ? lo : keys[i - 1];
    uint64_t child_hi = i == count ? hi : keys[i] - 1;
    LRUK_RETURN_IF_ERROR(CheckRec(children[i], child_lo, child_hi, depth + 1,
                                  leaf_depth, prev_leaf, prev_key,
                                  /*is_root=*/false));
  }
  return Status::Ok();
}

Status BTree::CheckInvariants() {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::Ok()
                      : Status::Internal("empty tree with nonzero size");
  }
  int leaf_depth = -1;
  PageId prev_leaf = kInvalidPageId;
  uint64_t prev_key = 0;
  LRUK_RETURN_IF_ERROR(CheckRec(root_, 0, UINT64_MAX, 0, &leaf_depth,
                                &prev_leaf, &prev_key, /*is_root=*/true));
  // The final leaf must terminate the chain.
  if (prev_leaf != kInvalidPageId) {
    auto guard = PageGuard::Fetch(*pool_, prev_leaf);
    if (!guard.ok()) return guard.status();
    if (guard->As<BTreeLeafPage>()->next_leaf != kInvalidPageId) {
      return Status::Internal("leaf chain extends past the last leaf");
    }
  }
  return Status::Ok();
}

Result<uint64_t> BTree::CountPages() {
  if (root_ == kInvalidPageId) return uint64_t{0};
  uint64_t count = 0;
  std::vector<PageId> stack = {root_};
  while (!stack.empty()) {
    PageId id = stack.back();
    stack.pop_back();
    ++count;
    auto guard = PageGuard::Fetch(*pool_, id);
    if (!guard.ok()) return guard.status();
    const auto* header = guard->As<BTreeNodeHeader>();
    if (header->type == BTreeNodeType::kInternal) {
      const auto* node = guard->As<BTreeInternalPage>();
      for (size_t i = 0; i <= node->header.count; ++i) {
        stack.push_back(node->children[i]);
      }
    }
  }
  return count;
}

Result<std::vector<PageId>> BTree::LeafPageIds() {
  std::vector<PageId> out;
  if (root_ == kInvalidPageId) return out;
  // Walk down the leftmost spine, then follow the sibling chain.
  PageId current = root_;
  while (true) {
    auto guard = PageGuard::Fetch(*pool_, current);
    if (!guard.ok()) return guard.status();
    if (guard->As<BTreeNodeHeader>()->type == BTreeNodeType::kLeaf) break;
    current = guard->As<BTreeInternalPage>()->children[0];
  }
  while (current != kInvalidPageId) {
    out.push_back(current);
    auto guard = PageGuard::Fetch(*pool_, current);
    if (!guard.ok()) return guard.status();
    current = guard->As<BTreeLeafPage>()->next_leaf;
  }
  return out;
}

}  // namespace lruk
