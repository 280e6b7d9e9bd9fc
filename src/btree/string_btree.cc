#include "btree/string_btree.h"

#include <cstring>

namespace lruk {

namespace {

constexpr uint32_t kLeafType = 1;
constexpr uint32_t kInternalType = 2;

struct NodeHeader {
  uint32_t type;
  uint32_t count;
  uint32_t free_start;  // Lowest byte offset used by entry data.
  uint32_t padding;
  // Leaf: right-sibling page. Internal: leftmost child (keys below every
  // separator).
  PageId link;
};

struct NodeSlot {
  uint16_t offset;
  uint16_t key_len;
};

NodeHeader* Header(char* data) { return reinterpret_cast<NodeHeader*>(data); }
const NodeHeader* Header(const char* data) {
  return reinterpret_cast<const NodeHeader*>(data);
}
NodeSlot* Slots(char* data) {
  return reinterpret_cast<NodeSlot*>(data + sizeof(NodeHeader));
}
const NodeSlot* Slots(const char* data) {
  return reinterpret_cast<const NodeSlot*>(data + sizeof(NodeHeader));
}

std::string_view KeyAt(const char* data, uint32_t slot) {
  const NodeSlot& s = Slots(data)[slot];
  return std::string_view(data + s.offset, s.key_len);
}

// The 8-byte payload following the key: a value (leaf) or child (internal).
uint64_t PayloadAt(const char* data, uint32_t slot) {
  const NodeSlot& s = Slots(data)[slot];
  uint64_t value;
  std::memcpy(&value, data + s.offset + s.key_len, sizeof(value));
  return value;
}

void SetPayloadAt(char* data, uint32_t slot, uint64_t value) {
  NodeSlot& s = Slots(data)[slot];
  std::memcpy(data + s.offset + s.key_len, &value, sizeof(value));
}

// First slot whose key is >= `key`.
uint32_t LowerBound(const char* data, std::string_view key) {
  uint32_t lo = 0;
  uint32_t hi = Header(data)->count;
  while (lo < hi) {
    uint32_t mid = lo + (hi - lo) / 2;
    if (KeyAt(data, mid) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Child subtree of an internal node covering `key`: separators are the
// smallest keys of their subtrees, so take the last separator <= key.
PageId ChildFor(const char* data, std::string_view key) {
  uint32_t idx = LowerBound(data, key);
  const NodeHeader* header = Header(data);
  if (idx < header->count && KeyAt(data, idx) == key) {
    return static_cast<PageId>(PayloadAt(data, idx));
  }
  if (idx == 0) return header->link;
  return static_cast<PageId>(PayloadAt(data, idx - 1));
}

size_t DirectoryEnd(uint32_t count) {
  return sizeof(NodeHeader) + count * sizeof(NodeSlot);
}

bool Fits(const char* data, size_t key_len) {
  const NodeHeader* header = Header(data);
  return DirectoryEnd(header->count + 1) + key_len + sizeof(uint64_t) <=
         header->free_start;
}

// Rewrites entry data flush against the page end (reclaims delete holes).
void CompactNode(char* data) {
  NodeHeader* header = Header(data);
  NodeSlot* slots = Slots(data);
  std::vector<std::string> entries(header->count);
  for (uint32_t i = 0; i < header->count; ++i) {
    entries[i].assign(data + slots[i].offset,
                      slots[i].key_len + sizeof(uint64_t));
  }
  uint32_t cursor = kPageSize;
  for (uint32_t i = 0; i < header->count; ++i) {
    cursor -= static_cast<uint32_t>(entries[i].size());
    std::memcpy(data + cursor, entries[i].data(), entries[i].size());
    slots[i].offset = static_cast<uint16_t>(cursor);
  }
  header->free_start = cursor;
}

// Inserts (key, payload) at slot position `pos`; the caller has verified
// Fits() (possibly after CompactNode).
void InsertEntry(char* data, uint32_t pos, std::string_view key,
                 uint64_t payload) {
  NodeHeader* header = Header(data);
  NodeSlot* slots = Slots(data);
  std::memmove(&slots[pos + 1], &slots[pos],
               (header->count - pos) * sizeof(NodeSlot));
  header->free_start -=
      static_cast<uint32_t>(key.size() + sizeof(uint64_t));
  std::memcpy(data + header->free_start, key.data(), key.size());
  std::memcpy(data + header->free_start + key.size(), &payload,
              sizeof(payload));
  slots[pos].offset = static_cast<uint16_t>(header->free_start);
  slots[pos].key_len = static_cast<uint16_t>(key.size());
  ++header->count;
}

void RemoveEntry(char* data, uint32_t pos) {
  NodeHeader* header = Header(data);
  NodeSlot* slots = Slots(data);
  std::memmove(&slots[pos], &slots[pos + 1],
               (header->count - pos - 1) * sizeof(NodeSlot));
  --header->count;
  // Data bytes become a hole; CompactNode reclaims them when needed.
}

}  // namespace

StringBTree::StringBTree(PoolInterface* pool, PageId root)
    : pool_(pool), root_(root) {
  LRUK_ASSERT(pool_ != nullptr, "StringBTree needs a buffer pool");
  if (root_ == kInvalidPageId) return;
  // Re-attach: count live entries by walking the leaf chain.
  PageId current = root_;
  while (true) {
    auto guard = PageGuard::Fetch(*pool_, current);
    LRUK_ASSERT(guard.ok(), "tree page unreadable");
    if (Header(guard->Data())->type == kLeafType) break;
    current = Header(guard->Data())->link;
  }
  while (current != kInvalidPageId) {
    auto guard = PageGuard::Fetch(*pool_, current);
    LRUK_ASSERT(guard.ok(), "leaf chain page unreadable");
    size_ += Header(guard->Data())->count;
    current = Header(guard->Data())->link;
  }
}

Result<PageGuard> StringBTree::NewNode(bool leaf) {
  auto guard = PageGuard::New(*pool_);
  if (!guard.ok()) return guard.status();
  NodeHeader* header = Header(guard->MutableData());
  header->type = leaf ? kLeafType : kInternalType;
  header->count = 0;
  header->free_start = kPageSize;
  header->link = kInvalidPageId;
  return guard;
}

Result<PageGuard> StringBTree::FindLeaf(std::string_view key) {
  if (root_ == kInvalidPageId) return Status::NotFound("tree is empty");
  auto guard = PageGuard::Fetch(*pool_, root_);
  if (!guard.ok()) return guard.status();
  PageGuard current = std::move(*guard);
  while (Header(current.Data())->type == kInternalType) {
    PageId child = ChildFor(current.Data(), key);
    auto next = PageGuard::Fetch(*pool_, child);
    if (!next.ok()) return next.status();
    current = std::move(*next);
  }
  return current;
}

Status StringBTree::Insert(std::string_view key, uint64_t value) {
  if (key.empty() || key.size() > kMaxKeySize) {
    return Status::InvalidArgument("key must be 1.." +
                                   std::to_string(kMaxKeySize) + " bytes");
  }
  if (root_ == kInvalidPageId) {
    auto guard = NewNode(/*leaf=*/true);
    if (!guard.ok()) return guard.status();
    InsertEntry(guard->MutableData(), 0, key, value);
    root_ = guard->id();
    size_ = 1;
    return Status::Ok();
  }
  std::optional<SplitResult> split;
  LRUK_RETURN_IF_ERROR(InsertRec(root_, key, value, &split));
  ++size_;
  if (split.has_value()) {
    auto guard = NewNode(/*leaf=*/false);
    if (!guard.ok()) return guard.status();
    Header(guard->MutableData())->link = root_;
    InsertEntry(guard->MutableData(), 0, split->separator, split->right);
    root_ = guard->id();
  }
  return Status::Ok();
}

Status StringBTree::InsertRec(PageId node_id, std::string_view key,
                              uint64_t value,
                              std::optional<SplitResult>* split) {
  auto guard = PageGuard::Fetch(*pool_, node_id);
  if (!guard.ok()) return guard.status();

  if (Header(guard->Data())->type == kInternalType) {
    PageId child = ChildFor(guard->Data(), key);
    std::optional<SplitResult> child_split;
    LRUK_RETURN_IF_ERROR(InsertRec(child, key, value, &child_split));
    if (!child_split.has_value()) return Status::Ok();
    // Absorb the child's split: insert (separator -> right child).
    char* data = guard->MutableData();
    uint32_t pos = LowerBound(data, child_split->separator);
    if (!Fits(data, child_split->separator.size())) CompactNode(data);
    if (Fits(data, child_split->separator.size())) {
      InsertEntry(data, pos, child_split->separator, child_split->right);
      return Status::Ok();
    }
    // Internal split: move the upper half of separators to a new node,
    // promoting the middle separator (it becomes the new node's link).
    auto right_guard = NewNode(/*leaf=*/false);
    if (!right_guard.ok()) return right_guard.status();
    char* right = right_guard->MutableData();
    NodeHeader* header = Header(data);
    uint32_t mid = header->count / 2;
    std::string promoted(KeyAt(data, mid));
    Header(right)->link = static_cast<PageId>(PayloadAt(data, mid));
    for (uint32_t i = mid + 1; i < header->count; ++i) {
      InsertEntry(right, Header(right)->count, KeyAt(data, i),
                  PayloadAt(data, i));
    }
    header->count = mid;  // Drops [mid..] incl. the promoted separator.
    CompactNode(data);
    // Route the pending separator to the correct half.
    if (child_split->separator < promoted) {
      InsertEntry(data, LowerBound(data, child_split->separator),
                  child_split->separator, child_split->right);
    } else {
      InsertEntry(right, LowerBound(right, child_split->separator),
                  child_split->separator, child_split->right);
    }
    *split = SplitResult{std::move(promoted), right_guard->id()};
    return Status::Ok();
  }

  // Leaf.
  {
    const char* rdata = guard->Data();
    uint32_t pos = LowerBound(rdata, key);
    if (pos < Header(rdata)->count && KeyAt(rdata, pos) == key) {
      return Status::AlreadyExists("duplicate key");
    }
  }
  char* data = guard->MutableData();
  if (!Fits(data, key.size())) CompactNode(data);
  if (Fits(data, key.size())) {
    InsertEntry(data, LowerBound(data, key), key, value);
    return Status::Ok();
  }
  // Leaf split by entry count; the new key goes to whichever half covers
  // it afterwards.
  auto right_guard = NewNode(/*leaf=*/true);
  if (!right_guard.ok()) return right_guard.status();
  char* right = right_guard->MutableData();
  NodeHeader* header = Header(data);
  uint32_t mid = header->count / 2;
  for (uint32_t i = mid; i < header->count; ++i) {
    InsertEntry(right, Header(right)->count, KeyAt(data, i),
                PayloadAt(data, i));
  }
  Header(right)->link = header->link;
  header->link = right_guard->id();
  header->count = mid;
  CompactNode(data);

  std::string separator(KeyAt(right, 0));
  if (key < separator) {
    InsertEntry(data, LowerBound(data, key), key, value);
  } else {
    InsertEntry(right, LowerBound(right, key), key, value);
  }
  *split = SplitResult{std::move(separator), right_guard->id()};
  return Status::Ok();
}

Result<uint64_t> StringBTree::Get(std::string_view key) {
  auto leaf = FindLeaf(key);
  if (!leaf.ok()) return Status::NotFound("key not found");
  const char* data = leaf->Data();
  uint32_t pos = LowerBound(data, key);
  if (pos < Header(data)->count && KeyAt(data, pos) == key) {
    return PayloadAt(data, pos);
  }
  return Status::NotFound("key not found");
}

Status StringBTree::Update(std::string_view key, uint64_t value) {
  // Traverse read-only; only the leaf is dirtied.
  auto leaf = FindLeaf(key);
  if (!leaf.ok()) return Status::NotFound("key not found");
  const char* rdata = leaf->Data();
  uint32_t pos = LowerBound(rdata, key);
  if (pos < Header(rdata)->count && KeyAt(rdata, pos) == key) {
    SetPayloadAt(leaf->MutableData(), pos, value);
    return Status::Ok();
  }
  return Status::NotFound("key not found");
}

Status StringBTree::Delete(std::string_view key) {
  auto leaf = FindLeaf(key);
  if (!leaf.ok()) return Status::NotFound("key not found");
  const char* rdata = leaf->Data();
  uint32_t pos = LowerBound(rdata, key);
  if (pos >= Header(rdata)->count || KeyAt(rdata, pos) != key) {
    return Status::NotFound("key not found");
  }
  RemoveEntry(leaf->MutableData(), pos);
  --size_;
  return Status::Ok();
}

Status StringBTree::Scan(
    std::string_view lo, std::string_view hi,
    const std::function<bool(std::string_view, uint64_t)>& visit) {
  if (lo > hi) return Status::InvalidArgument("scan range is inverted");
  if (root_ == kInvalidPageId) return Status::Ok();
  auto leaf = FindLeaf(lo);
  if (!leaf.ok()) return leaf.status();
  PageGuard current = std::move(*leaf);
  uint32_t pos = LowerBound(current.Data(), lo);
  while (true) {
    const char* data = current.Data();
    const NodeHeader* header = Header(data);
    for (; pos < header->count; ++pos) {
      std::string_view key = KeyAt(data, pos);
      if (key > hi) return Status::Ok();
      if (!visit(key, PayloadAt(data, pos))) return Status::Ok();
    }
    if (header->link == kInvalidPageId) return Status::Ok();
    auto next = PageGuard::Fetch(*pool_, header->link);
    if (!next.ok()) return next.status();
    current = std::move(*next);
    pos = 0;
  }
}

Status StringBTree::CheckRec(PageId node_id, std::string_view lo,
                             std::optional<std::string> hi, int depth,
                             int* leaf_depth, PageId* prev_leaf,
                             std::string* prev_key) {
  auto guard = PageGuard::Fetch(*pool_, node_id);
  if (!guard.ok()) return guard.status();
  const char* data = guard->Data();
  const NodeHeader* header = Header(data);

  // In-node key order + bounds (shared by both node kinds).
  for (uint32_t i = 0; i < header->count; ++i) {
    std::string_view key = KeyAt(data, i);
    if (key < lo) return Status::Internal("key below subtree bound");
    if (hi.has_value() && key >= *hi) {
      return Status::Internal("key above subtree bound");
    }
    if (i > 0 && !(KeyAt(data, i - 1) < key)) {
      return Status::Internal("keys not strictly ascending");
    }
  }

  if (header->type == kLeafType) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at different depths");
    }
    for (uint32_t i = 0; i < header->count; ++i) {
      std::string_view key = KeyAt(data, i);
      if (!prev_key->empty()) {
        if (!(*prev_key < key)) {
          return Status::Internal("global key order violated");
        }
      }
      prev_key->assign(key);
    }
    if (*prev_leaf != kInvalidPageId) {
      auto prev_guard = PageGuard::Fetch(*pool_, *prev_leaf);
      if (!prev_guard.ok()) return prev_guard.status();
      if (Header(prev_guard->Data())->link != node_id) {
        return Status::Internal("broken leaf sibling chain");
      }
    }
    *prev_leaf = node_id;
    return Status::Ok();
  }

  if (header->type != kInternalType) {
    return Status::Internal("node with invalid type tag");
  }
  if (header->count == 0) {
    return Status::Internal("internal node without separators");
  }
  // Copy children/separators before releasing the guard.
  std::vector<std::string> seps;
  std::vector<PageId> children = {header->link};
  for (uint32_t i = 0; i < header->count; ++i) {
    seps.emplace_back(KeyAt(data, i));
    children.push_back(static_cast<PageId>(PayloadAt(data, i)));
  }
  guard->Release();
  for (size_t i = 0; i < children.size(); ++i) {
    std::string_view child_lo = i == 0 ? lo : std::string_view(seps[i - 1]);
    std::optional<std::string> child_hi =
        i == seps.size() ? hi : std::optional<std::string>(seps[i]);
    LRUK_RETURN_IF_ERROR(CheckRec(children[i], child_lo,
                                  std::move(child_hi), depth + 1,
                                  leaf_depth, prev_leaf, prev_key));
  }
  return Status::Ok();
}

Status StringBTree::CheckInvariants() {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::Ok()
                      : Status::Internal("empty tree with nonzero size");
  }
  int leaf_depth = -1;
  PageId prev_leaf = kInvalidPageId;
  std::string prev_key;
  LRUK_RETURN_IF_ERROR(CheckRec(root_, std::string_view(), std::nullopt, 0,
                                &leaf_depth, &prev_leaf, &prev_key));
  if (prev_leaf != kInvalidPageId) {
    auto guard = PageGuard::Fetch(*pool_, prev_leaf);
    if (!guard.ok()) return guard.status();
    if (Header(guard->Data())->link != kInvalidPageId) {
      return Status::Internal("leaf chain extends past the last leaf");
    }
  }
  return Status::Ok();
}

}  // namespace lruk
