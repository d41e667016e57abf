#include "index/rtree3.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>
#include <utility>

#include "index/soa_kernel.h"
#include "storage/memory_storage_manager.h"
#include "util/little_endian.h"

namespace modb::index {

using geo::Box3;
using storage::kInvalidPageId;

/// Plumbing form of one node entry, used where entries travel between
/// nodes (orphan reinsertion, bulk-load levels). Inside a node, entries
/// live in the column layout below, not as `Entry` objects.
struct RTree3::Entry {
  Box3 box;
  Value value = 0;
  NodeId child = kInvalidPageId;  // kInvalidPageId for leaf entries
};

/// One heap block: this header, then `capacity` slots in each of six
/// coordinate columns (min x/y/t, max x/y/t), the word column (`word()[i]`
/// is the value of leaf entry `i`, or the child NodeId of internal entry
/// `i`) and, for internal nodes only, the child-pointer column that caches
/// the resident-mode child so searches traverse without the node table
/// (nullptr outside resident mode). The header is padded to the 8-byte
/// column slot.
struct alignas(8) RTree3::Node {
  std::uint32_t level = 0;  // 0 == leaf
  std::uint32_t count = 0;
  std::uint32_t capacity = 0;

  static std::size_t BlockBytes(std::uint32_t level, std::size_t capacity) {
    static_assert(sizeof(Node) % kSlotBytes == 0);
    return sizeof(Node) +
           capacity * kSlotBytes * static_cast<std::size_t>(ColumnsFor(level));
  }

  bool IsLeaf() const { return level == 0; }

  // Coordinate columns: lo(d) holds min[d], hi(d) holds max[d].
  double* lo(int d) { return reinterpret_cast<double*>(Column(d)); }
  double* hi(int d) { return reinterpret_cast<double*>(Column(3 + d)); }
  const double* lo(int d) const {
    return reinterpret_cast<const double*>(Column(d));
  }
  const double* hi(int d) const {
    return reinterpret_cast<const double*>(Column(3 + d));
  }
  std::uint64_t* word() {
    return reinterpret_cast<std::uint64_t*>(Column(kWordColumn));
  }
  const std::uint64_t* word() const {
    return reinterpret_cast<const std::uint64_t*>(Column(kWordColumn));
  }
  const Node* child(std::size_t i) const {
    return IsLeaf() ? nullptr : ChildColumn()[i];
  }
  void SetChild(std::size_t i, const Node* ptr) {
    if (!IsLeaf()) ChildColumn()[i] = ptr;
  }

  Box3 BoxAt(std::size_t i) const {
    return Box3(lo(0)[i], lo(1)[i], lo(2)[i], hi(0)[i], hi(1)[i], hi(2)[i]);
  }

  void SetBoxAt(std::size_t i, const Box3& box) {
    for (int d = 0; d < 3; ++d) {
      lo(d)[i] = box.min[d];
      hi(d)[i] = box.max[d];
    }
  }

  void PushEntry(const Box3& box, std::uint64_t w, const Node* ptr) {
    assert(count < capacity);
    SetBoxAt(count, box);
    word()[count] = w;
    SetChild(count, ptr);
    ++count;
  }

  void EraseAt(std::size_t i) {
    const std::size_t tail = (count - i - 1) * kSlotBytes;
    for (int c = 0; c < columns(); ++c) {
      std::byte* col = Column(c);
      std::memmove(col + i * kSlotBytes, col + (i + 1) * kSlotBytes, tail);
    }
    --count;
  }

  Box3 ComputeBox() const {
    Box3 box;
    for (std::size_t i = 0; i < count; ++i) box.Expand(BoxAt(i));
    return box;
  }

 private:
  // Every column slot is 8 bytes: 0-5 coordinates, 6 the word column, 7
  // the child pointers (internal nodes only). Column c starts c * capacity
  // slots after the header, and each is only ever accessed as its own type.
  static constexpr std::size_t kSlotBytes = 8;
  static constexpr int kWordColumn = 6;
  static constexpr int kChildColumn = 7;
  static_assert(sizeof(double) == kSlotBytes &&
                sizeof(std::uint64_t) == kSlotBytes &&
                sizeof(const Node*) <= kSlotBytes);

  static int ColumnsFor(std::uint32_t level) {
    return level == 0 ? kChildColumn : kChildColumn + 1;
  }
  int columns() const { return ColumnsFor(level); }
  std::byte* Column(int c) {
    return reinterpret_cast<std::byte*>(this) + sizeof(Node) +
           static_cast<std::size_t>(c) * capacity * kSlotBytes;
  }
  const std::byte* Column(int c) const {
    return reinterpret_cast<const std::byte*>(this) + sizeof(Node) +
           static_cast<std::size_t>(c) * capacity * kSlotBytes;
  }
  const Node** ChildColumn() {
    return reinterpret_cast<const Node**>(Column(kChildColumn));
  }
  const Node* const* ChildColumn() const {
    return reinterpret_cast<const Node* const*>(Column(kChildColumn));
  }
};

void RTree3::NodeFree::operator()(Node* node) const {
  ::operator delete(static_cast<void*>(node));
}

/// A resolved node: a bare table lookup in resident mode, a buffer-pool pin
/// in paged mode. Invalid (`node == nullptr`) when the lookup failed — the
/// tree is poisoned by then and the caller bails out.
struct RTree3::Pinned {
  storage::BufferPool::Handle handle;  // invalid in resident mode
  Node* node = nullptr;
  NodeId id = kInvalidPageId;

  explicit operator bool() const { return node != nullptr; }
  void Release() {
    handle.Release();
    node = nullptr;
  }
};

/// Scratch state of one `RemoveBatch` descent.
struct RTree3::RemoveScan {
  /// An entry of a condensed node, with the level it reinserts at.
  struct Orphan {
    Entry entry;
    std::size_t level = 0;
  };
  std::span<const Box3> targets;
  Value value = 0;
  std::vector<std::uint8_t> found;  // per target
  std::size_t missing = 0;
  /// Target-index lists, used as a stack along the descent: a node's
  /// wanted targets are a slice, and its candidate children's lists are
  /// appended after everything its ancestors appended.
  std::vector<std::uint32_t> wanted;
  std::vector<Orphan> orphans;
};

/// What `RemoveUnder` did to its node, for the parent to apply.
struct RTree3::RemoveStep {
  enum class Kind { kUntouched, kChanged, kDissolved };
  Kind kind = Kind::kUntouched;
  Box3 box;  // the node's new bounding box (kChanged)
};

namespace {

constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

bool SameBox(const Box3& a, const Box3& b) {
  for (int d = 0; d < 3; ++d) {
    if (a.min[d] != b.min[d] || a.max[d] != b.max[d]) return false;
  }
  return true;
}

// Node page layout (little-endian), unchanged from the array-of-structs
// node representation so old page files decode as-is:
//   u32 level | u64 parent | u32 count |
//   count x { f64 min[3], f64 max[3], u64 word }
// where `word` is the value for leaf entries and the child NodeId for
// internal ones (distinguished by `level`). The parent field is a fossil —
// nodes no longer track parents (mutations carry explicit root-to-leaf
// paths) — so encode writes kInvalidPageId and decode ignores it.
constexpr std::size_t kNodeHeaderBytes = 16;
constexpr std::size_t kEntryBytes = 6 * 8 + 8;

}  // namespace

util::Status RTree3::EncodeNode(const void* object, std::string* out) {
  const auto* node = static_cast<const Node*>(object);
  out->clear();
  out->reserve(kNodeHeaderBytes + node->count * kEntryBytes);
  util::PutU32(out, node->level);
  util::PutU64(out, kInvalidPageId);  // fossil parent (see layout comment)
  util::PutU32(out, node->count);
  for (std::size_t i = 0; i < node->count; ++i) {
    for (int d = 0; d < 3; ++d) util::PutF64(out, node->lo(d)[i]);
    for (int d = 0; d < 3; ++d) util::PutF64(out, node->hi(d)[i]);
    util::PutU64(out, node->word()[i]);
  }
  return util::Status::Ok();
}

util::Result<std::shared_ptr<void>> RTree3::DecodeNode(
    std::string_view bytes, std::size_t capacity) {
  if (bytes.size() < kNodeHeaderBytes) {
    return util::Status::Internal("node page truncated: " +
                                  std::to_string(bytes.size()) + " bytes");
  }
  const std::uint32_t level = util::GetU32(bytes.data());
  const std::uint32_t count = util::GetU32(bytes.data() + 12);
  if (bytes.size() != kNodeHeaderBytes + std::size_t{count} * kEntryBytes) {
    return util::Status::Internal(
        "node page size mismatch: " + std::to_string(bytes.size()) +
        " bytes for " + std::to_string(count) + " entries");
  }
  if (count > capacity) {
    return util::Status::Internal("node page holds " + std::to_string(count) +
                                  " entries, fan-out allows " +
                                  std::to_string(capacity));
  }
  void* block = ::operator new(Node::BlockBytes(level, capacity));
  std::shared_ptr<Node> node(new (block) Node, NodeFree{});
  node->level = level;
  node->capacity = static_cast<std::uint32_t>(capacity);
  std::size_t pos = kNodeHeaderBytes;
  for (std::uint32_t i = 0; i < count; ++i, pos += kEntryBytes) {
    const char* e = bytes.data() + pos;
    const Box3 box(util::GetF64(e), util::GetF64(e + 8), util::GetF64(e + 16),
                   util::GetF64(e + 24), util::GetF64(e + 32),
                   util::GetF64(e + 40));
    node->PushEntry(box, util::GetU64(e + 48), nullptr);
  }
  return std::shared_ptr<void>(std::move(node));
}

RTree3::RTree3() : RTree3(Options{}) {}

RTree3::RTree3(Options options) : options_(std::move(options)) {
  assert(options_.max_entries >= 4);
  assert(options_.min_entries >= 2);
  assert(options_.min_entries <= options_.max_entries / 2);

  // Resident mode owns its nodes in the node table; it needs storage that
  // can neither evict nor fail, which is exactly what the default (memory,
  // unbounded pool) describes — so no page store is opened at all.
  resident_ = options_.storage.kind == storage::StorageKind::kMemory &&
              options_.storage.pool_pages == 0;
  if (!resident_) {
    auto storage = storage::OpenStorage(options_.storage);
    if (storage.ok()) {
      storage_ = std::move(*storage);
    } else {
      Poison(storage.status());
      // Inert backing so the poisoned tree stays safely callable.
      storage_ = std::make_unique<storage::MemoryStorageManager>();
    }
    storage::PageCodec codec;
    codec.encode = &RTree3::EncodeNode;
    codec.decode = [capacity = options_.max_entries + 1](
                       std::string_view bytes) {
      return DecodeNode(bytes, capacity);
    };
    storage::BufferPoolOptions pool_options;
    pool_options.capacity_pages = options_.storage.pool_pages;
    pool_ = std::make_unique<storage::BufferPool>(storage_.get(),
                                                  std::move(codec),
                                                  pool_options);
    // An overfull node (max_entries + 1, transiently held between an insert
    // and its split) must still fit a page: it can be evicted and written
    // back while unpinned.
    const std::size_t required =
        kNodeHeaderBytes + (options_.max_entries + 1) * kEntryBytes;
    if (healthy() && storage_->page_payload_size() < required) {
      Poison(util::Status::InvalidArgument(
          "page payload of " + std::to_string(storage_->page_payload_size()) +
          " bytes cannot hold fan-out " +
          std::to_string(options_.max_entries) + " (needs " +
          std::to_string(required) + ")"));
    }
  }
  if (healthy()) {
    Pinned root = AllocNode(0);
    if (root) root_ = root.id;
  }
}

RTree3::~RTree3() { SetMetrics(nullptr, ""); }

util::Status RTree3::storage_status() const {
  std::lock_guard<std::mutex> lock(ctl_.mu);
  return ctl_.status;
}

bool RTree3::healthy() const {
  return !ctl_.poisoned.load(std::memory_order_acquire);
}

void RTree3::Poison(const util::Status& status) const {
  if (status.ok()) return;
  std::lock_guard<std::mutex> lock(ctl_.mu);
  if (ctl_.status.ok()) ctl_.status = status;  // first error wins
  ctl_.poisoned.store(true, std::memory_order_release);
}

RTree3::NodeBlock RTree3::NewNode(std::uint32_t level) const {
  const std::size_t capacity = options_.max_entries + 1;
  void* block = ::operator new(Node::BlockBytes(level, capacity));
  NodeBlock node(new (block) Node);
  node->level = level;
  node->capacity = static_cast<std::uint32_t>(capacity);
  return node;
}

RTree3::Pinned RTree3::Pin(NodeId id) const {
  Pinned pinned;
  if (resident_) {
    if (id < nodes_.size()) pinned.node = nodes_[id].get();
    if (pinned.node == nullptr) {
      Poison(util::Status::Internal("pin of a free node id"));
    } else {
      pinned.id = id;
    }
    return pinned;
  }
  if (id == kInvalidPageId) {
    Poison(util::Status::Internal("pin of invalid node id"));
    return pinned;
  }
  auto handle = pool_->Fetch(id);
  if (!handle.ok()) {
    Poison(handle.status());
    return pinned;
  }
  pinned.handle = std::move(*handle);
  pinned.node = static_cast<Node*>(pinned.handle.get());
  pinned.id = id;
  return pinned;
}

RTree3::Pinned RTree3::AllocNode(std::uint32_t level) {
  Pinned pinned;
  NodeBlock node = NewNode(level);
  pinned.node = node.get();
  if (resident_) {
    if (free_ids_.empty()) {
      pinned.id = nodes_.size();
      nodes_.push_back(std::move(node));
    } else {
      pinned.id = free_ids_.back();
      free_ids_.pop_back();
      nodes_[pinned.id] = std::move(node);
    }
    return pinned;
  }
  auto handle = pool_->Create(std::shared_ptr<Node>(std::move(node)));
  if (!handle.ok()) {
    Poison(handle.status());
    return Pinned{};
  }
  pinned.handle = std::move(*handle);
  pinned.id = pinned.handle.id();
  return pinned;
}

void RTree3::FreeNode(NodeId id) {
  if (resident_) {
    if (!Pin(id)) return;
    nodes_[id].reset();
    free_ids_.push_back(id);
    return;
  }
  if (util::Status s = pool_->Free(id); !s.ok()) Poison(s);
}

bool RTree3::AppendEntry(Node* node, const Box3& box, std::uint64_t w) {
  const Node* ptr = nullptr;
  if (resident_ && node->level > 0) {
    Pinned child = Pin(static_cast<NodeId>(w));
    if (!child) return false;
    ptr = child.node;
  }
  node->PushEntry(box, w, ptr);
  return true;
}

std::size_t RTree3::FindChildSlot(const Node& node, NodeId child) const {
  for (std::size_t i = 0; i < node.count; ++i) {
    if (node.word()[i] == child) return i;
  }
  Poison(util::Status::Internal("child id missing from parent node"));
  return kNoSlot;
}

void RTree3::Insert(const Box3& box, Value value) {
  assert(!box.Empty());
  if (!healthy()) return;
  Entry entry;
  entry.box = box;
  entry.value = value;
  InsertEntryAtLevel(entry, 0);
  if (healthy()) size_.fetch_add(1, std::memory_order_relaxed);
  SyncMetrics();
}

void RTree3::InsertEntryAtLevel(const Entry& entry, std::size_t level) {
  std::vector<NodeId> path = ChoosePath(entry.box, level);
  if (path.empty()) return;
  const std::size_t depth = path.size() - 1;
  bool overflow = false;
  {
    Pinned p = Pin(path[depth]);
    if (!p) return;
    if (!AppendEntry(p.node,
                     entry.box,
                     p.node->IsLeaf() ? entry.value : entry.child)) {
      return;
    }
    p.handle.MarkDirty();
    overflow = p.node->count > options_.max_entries;
  }
  if (overflow) {
    SplitAlongPath(path, depth);
  } else {
    AdjustPathBoxes(path, depth);
  }
}

std::vector<RTree3::NodeId> RTree3::ChoosePath(
    const Box3& box, std::size_t target_level) const {
  std::vector<NodeId> path;
  NodeId id = root_;
  Pinned p = Pin(id);
  if (!p) return {};
  path.push_back(id);
  while (p.node->level > target_level) {
    const Node* node = p.node;
    if (node->count == 0) {
      Poison(util::Status::Internal("empty internal node"));
      return {};
    }
    const bool children_are_leaves = node->level == 1;
    std::size_t best = 0;
    double best_primary = std::numeric_limits<double>::infinity();
    double best_secondary = std::numeric_limits<double>::infinity();
    double best_tertiary = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < node->count; ++i) {
      const Box3 ebox = node->BoxAt(i);
      const Box3 grown = ebox.Union(box);
      double primary;
      if (children_are_leaves) {
        // R*: minimise overlap enlargement at the leaf level.
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (std::size_t j = 0; j < node->count; ++j) {
          if (j == i) continue;
          const Box3 other = node->BoxAt(j);
          // A sibling disjoint from `grown` is disjoint from `ebox` too:
          // both of its overlap terms are exactly +0.0.
          if (!grown.Intersects(other)) continue;
          overlap_before += ebox.OverlapVolume(other);
          overlap_after += grown.OverlapVolume(other);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = 0.0;  // fall through to volume enlargement
      }
      const double secondary = grown.Volume() - ebox.Volume();
      const double tertiary = ebox.Volume();
      if (primary < best_primary ||
          (primary == best_primary && secondary < best_secondary) ||
          (primary == best_primary && secondary == best_secondary &&
           tertiary < best_tertiary)) {
        best = i;
        best_primary = primary;
        best_secondary = secondary;
        best_tertiary = tertiary;
      }
    }
    id = static_cast<NodeId>(node->word()[best]);
    p = Pin(id);
    if (!p) return {};
    path.push_back(id);
  }
  return path;
}

void RTree3::SplitAlongPath(std::vector<NodeId>& path, std::size_t depth) {
  struct SplitEntry {
    Box3 box;
    std::uint64_t word = 0;
    const Node* child_ptr = nullptr;
  };
  while (healthy()) {
    splits_.fetch_add(1, std::memory_order_relaxed);
    const NodeId node_id = path[depth];
    bool parent_overflow = false;
    {
      Pinned p = Pin(node_id);
      if (!p) return;
      Node* node = p.node;

      // R* split: choose the axis with the minimal total margin over all
      // candidate distributions, then the distribution with minimal overlap
      // (ties broken by total volume).
      const std::size_t total = node->count;
      const std::size_t min_e = options_.min_entries;
      assert(total > options_.max_entries);

      std::vector<SplitEntry> all(total);
      for (std::size_t i = 0; i < total; ++i) {
        all[i] = {node->BoxAt(i), node->word()[i], node->child(i)};
      }

      std::vector<std::size_t> order(total);
      std::vector<std::size_t> best_order;
      std::size_t best_split_at = min_e;
      double best_margin_for_axis = std::numeric_limits<double>::infinity();

      // For each axis and each of the two sortings (by min, by max),
      // evaluate every legal split position.
      for (int axis = 0; axis < 3; ++axis) {
        for (int by_max = 0; by_max < 2; ++by_max) {
          for (std::size_t i = 0; i < total; ++i) order[i] = i;
          std::sort(order.begin(), order.end(),
                    [&](std::size_t a, std::size_t b) {
                      const Box3& ba = all[a].box;
                      const Box3& bb = all[b].box;
                      return by_max ? ba.max[axis] < bb.max[axis]
                                    : ba.min[axis] < bb.min[axis];
                    });
          // Prefix / suffix boxes for O(n) margin evaluation per sorting.
          std::vector<Box3> prefix(total);
          std::vector<Box3> suffix(total);
          Box3 acc;
          for (std::size_t i = 0; i < total; ++i) {
            acc.Expand(all[order[i]].box);
            prefix[i] = acc;
          }
          acc = Box3();
          for (std::size_t i = total; i-- > 0;) {
            acc.Expand(all[order[i]].box);
            suffix[i] = acc;
          }
          double margin_sum = 0.0;
          double axis_best_overlap = std::numeric_limits<double>::infinity();
          double axis_best_volume = std::numeric_limits<double>::infinity();
          std::size_t axis_best_split = min_e;
          for (std::size_t k = min_e; k + min_e <= total; ++k) {
            const Box3& left = prefix[k - 1];
            const Box3& right = suffix[k];
            margin_sum += left.Margin() + right.Margin();
            const double overlap = left.OverlapVolume(right);
            const double volume = left.Volume() + right.Volume();
            if (overlap < axis_best_overlap ||
                (overlap == axis_best_overlap &&
                 volume < axis_best_volume)) {
              axis_best_overlap = overlap;
              axis_best_volume = volume;
              axis_best_split = k;
            }
          }
          if (margin_sum < best_margin_for_axis) {
            best_margin_for_axis = margin_sum;
            best_order = order;
            best_split_at = axis_best_split;
          }
        }
      }

      // Move the second group into a fresh sibling.
      Pinned sibling = AllocNode(node->level);
      if (!sibling) return;
      const NodeId sibling_id = sibling.id;
      node->count = 0;
      for (std::size_t i = 0; i < total; ++i) {
        const SplitEntry& e = all[best_order[i]];
        Node* target = i < best_split_at ? node : sibling.node;
        target->PushEntry(e.box, e.word, e.child_ptr);
      }
      p.handle.MarkDirty();  // sibling was created dirty

      if (depth == 0) {
        // Split of the root: grow the tree by one level.
        Pinned new_root = AllocNode(node->level + 1);
        if (!new_root) return;
        new_root.node->PushEntry(node->ComputeBox(), node_id,
                                 resident_ ? node : nullptr);
        new_root.node->PushEntry(sibling.node->ComputeBox(), sibling_id,
                                 resident_ ? sibling.node : nullptr);
        root_ = new_root.id;
        return;
      }

      // Refresh the split node's entry box in the parent and add the
      // sibling. The parent is the previous node on the path.
      Pinned parent = Pin(path[depth - 1]);
      if (!parent) return;
      const std::size_t slot = FindChildSlot(*parent.node, node_id);
      if (slot == kNoSlot) return;
      parent.node->SetBoxAt(slot, node->ComputeBox());
      parent.node->PushEntry(sibling.node->ComputeBox(), sibling_id,
                             resident_ ? sibling.node : nullptr);
      parent.handle.MarkDirty();
      parent_overflow = parent.node->count > options_.max_entries;
    }
    if (parent_overflow) {
      --depth;
      continue;
    }
    AdjustPathBoxes(path, depth - 1);
    return;
  }
}

void RTree3::AdjustPathBoxes(const std::vector<NodeId>& path,
                             std::size_t depth) {
  // Refresh the stored bounding box of every path node from `depth` up in
  // its parent (path[d-1] is always the parent of path[d]).
  for (std::size_t d = depth; d >= 1 && healthy(); --d) {
    Box3 box;
    {
      Pinned p = Pin(path[d]);
      if (!p) return;
      box = p.node->ComputeBox();
    }
    Pinned parent = Pin(path[d - 1]);
    if (!parent) return;
    const std::size_t slot = FindChildSlot(*parent.node, path[d]);
    if (slot == kNoSlot) return;
    parent.node->SetBoxAt(slot, box);
    parent.handle.MarkDirty();
  }
}

bool RTree3::Remove(const Box3& box, Value value) {
  return RemoveBatch(std::span<const Box3>(&box, 1), value) == 1;
}

std::size_t RTree3::RemoveBatch(std::span<const Box3> boxes, Value value) {
  if (boxes.empty() || !healthy()) return 0;
  RemoveScan scan;
  scan.targets = boxes;
  scan.value = value;
  scan.found.assign(boxes.size(), 0);
  scan.missing = boxes.size();
  scan.wanted.resize(boxes.size());
  for (std::size_t t = 0; t < boxes.size(); ++t) {
    scan.wanted[t] = static_cast<std::uint32_t>(t);
  }
  const RemoveStep root = RemoveUnder(root_, /*is_root=*/true, 0,
                                      boxes.size(), &scan);
  if (!healthy() || root.kind == RemoveStep::Kind::kUntouched) return 0;
  const std::size_t removed = boxes.size() - scan.missing;
  size_.fetch_sub(removed, std::memory_order_relaxed);

  // An internal root whose every child condensed away is empty; restart
  // the tree from an empty node at the highest orphan level, which the
  // first (highest-level) reinsertions below fill directly.
  std::size_t top_level = 0;
  for (const RemoveScan::Orphan& orphan : scan.orphans) {
    top_level = std::max(top_level, orphan.level);
  }
  if (Pinned r = Pin(root_); r && !r.node->IsLeaf() && r.node->count == 0) {
    r.Release();
    const NodeId old_root = root_;
    Pinned fresh_root = AllocNode(static_cast<std::uint32_t>(top_level));
    if (!fresh_root) return 0;
    root_ = fresh_root.id;
    FreeNode(old_root);
  }

  // Shrink the root while it has a single child.
  while (healthy()) {
    NodeId child_id = kInvalidPageId;
    {
      Pinned r = Pin(root_);
      if (!r) break;
      if (r.node->IsLeaf() || r.node->count != 1) break;
      child_id = static_cast<NodeId>(r.node->word()[0]);
    }
    const NodeId old_root = root_;
    root_ = child_id;
    FreeNode(old_root);
  }

  // Reinsert orphaned subtrees / leaf entries at their original level,
  // highest level first.
  std::stable_sort(scan.orphans.begin(), scan.orphans.end(),
                   [](const RemoveScan::Orphan& a,
                      const RemoveScan::Orphan& b) {
                     return a.level > b.level;
                   });
  for (const RemoveScan::Orphan& orphan : scan.orphans) {
    if (!healthy()) break;
    InsertEntryAtLevel(orphan.entry, orphan.level);
  }
  SyncMetrics();
  return healthy() ? removed : 0;
}

RTree3::RemoveStep RTree3::RemoveUnder(NodeId id, bool is_root,
                                       std::size_t begin, std::size_t end,
                                       RemoveScan* scan) {
  RemoveStep step;
  const std::size_t wanted_mark = scan->wanted.size();
  const auto any_missing = [scan](std::size_t from, std::size_t to) {
    for (std::size_t k = from; k < to; ++k) {
      if (!scan->found[scan->wanted[k]]) return true;
    }
    return false;
  };
  // Phase 1: find what changes below this node; its children apply their
  // own changes on the way back up.
  std::vector<std::size_t> erased;  // leaf: matched slots, ascending
  std::vector<std::pair<std::size_t, RemoveStep>> changed;  // internal
  Pinned p = Pin(id);
  if (!p) return step;
  if (p.node->IsLeaf()) {
    const Node& leaf = *p.node;
    for (std::size_t i = 0; i < leaf.count && scan->missing > 0; ++i) {
      if (leaf.word()[i] != scan->value) continue;
      const Box3 box = leaf.BoxAt(i);
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint32_t t = scan->wanted[k];
        if (!scan->found[t] && SameBox(box, scan->targets[t])) {
          scan->found[t] = 1;
          --scan->missing;
          erased.push_back(i);
          break;
        }
      }
    }
    if (erased.empty()) return step;
  } else {
    // Parent boxes are exact covers, so an entry lies below a child only
    // when the child's box contains it: each candidate child carries the
    // wanted targets its box contains, as a slice appended to `wanted`.
    struct Candidate {
      std::size_t slot;
      NodeId child;
      std::size_t begin;
      std::size_t end;
    };
    std::vector<Candidate> candidates;
    const Node& node = *p.node;
    for (std::size_t i = 0; i < node.count; ++i) {
      const Box3 box = node.BoxAt(i);
      const std::size_t slice = scan->wanted.size();
      for (std::size_t k = begin; k < end; ++k) {
        const std::uint32_t t = scan->wanted[k];
        if (!scan->found[t] && box.Contains(scan->targets[t])) {
          scan->wanted.push_back(t);
        }
      }
      if (scan->wanted.size() > slice) {
        candidates.push_back({i, static_cast<NodeId>(node.word()[i]), slice,
                              scan->wanted.size()});
      }
    }
    p.Release();  // tiny paged pools hold few frames; re-pinned below
    for (const Candidate& c : candidates) {
      if (scan->missing == 0) break;
      if (!any_missing(c.begin, c.end)) continue;
      const RemoveStep child =
          RemoveUnder(c.child, /*is_root=*/false, c.begin, c.end, scan);
      if (!healthy()) return step;
      if (child.kind != RemoveStep::Kind::kUntouched) {
        changed.emplace_back(c.slot, child);
      }
    }
    scan->wanted.resize(wanted_mark);
    if (changed.empty()) return step;
  }

  // Phase 2: apply the changes to this node (an internal node's pin was
  // released for the descent).
  Pinned w = p ? std::move(p) : Pin(id);
  if (!w) return step;
  Node* node = w.node;
  // Descending slot order keeps the lower slots' indices valid.
  for (auto it = erased.rbegin(); it != erased.rend(); ++it) {
    node->EraseAt(*it);
  }
  for (auto it = changed.rbegin(); it != changed.rend(); ++it) {
    const auto& [slot, child] = *it;
    if (child.kind == RemoveStep::Kind::kDissolved) {
      node->EraseAt(slot);
    } else {
      node->SetBoxAt(slot, child.box);
    }
  }
  w.handle.MarkDirty();
  if (!is_root && node->count < options_.min_entries) {
    // Condense: orphan the underfull node's entries for reinsertion.
    for (std::size_t i = 0; i < node->count; ++i) {
      RemoveScan::Orphan orphan;
      orphan.entry.box = node->BoxAt(i);
      orphan.level = node->level;
      if (node->IsLeaf()) {
        orphan.entry.value = node->word()[i];
      } else {
        orphan.entry.child = static_cast<NodeId>(node->word()[i]);
      }
      scan->orphans.push_back(orphan);
    }
    w.Release();
    FreeNode(id);
    step.kind = RemoveStep::Kind::kDissolved;
    return step;
  }
  step.kind = RemoveStep::Kind::kChanged;
  step.box = node->ComputeBox();
  return step;
}

RTree3::NodeId RTree3::BuildPacked(std::vector<Entry>* level_entries,
                                   Packing packing) {
  // Pack one level of entries into nodes: sort them (STR: by x-center into
  // vertical slices, each slice by y-center into runs, each run by
  // t-center; x order: by x-center alone), then chunk into nodes of
  // max_entries.
  std::uint32_t level = 0;
  while (healthy()) {
    const std::size_t n = level_entries->size();
    if (n <= options_.max_entries) {
      // The remaining entries fit in the root.
      Pinned root = AllocNode(level);
      if (!root) return kInvalidPageId;
      for (const Entry& e : *level_entries) {
        if (!AppendEntry(root.node, e.box, level == 0 ? e.value : e.child)) {
          return kInvalidPageId;
        }
      }
      return root.id;
    }

    const std::size_t num_nodes =
        (n + options_.max_entries - 1) / options_.max_entries;
    const auto tiles = static_cast<std::size_t>(
        std::ceil(std::cbrt(static_cast<double>(num_nodes))));
    const std::size_t slice_x = (n + tiles - 1) / tiles;

    auto center_less = [&](int dim) {
      return [dim](const Entry& a, const Entry& b) {
        return a.box.CenterDim(dim) < b.box.CenterDim(dim);
      };
    };
    std::sort(level_entries->begin(), level_entries->end(), center_less(0));
    // x order stops here; STR re-sorts each x slice by y, each run by t.
    for (std::size_t x0 = 0; packing == Packing::kSortTileRecursive && x0 < n;
         x0 += slice_x) {
      const std::size_t x1 = std::min(x0 + slice_x, n);
      std::sort(level_entries->begin() + static_cast<std::ptrdiff_t>(x0),
                level_entries->begin() + static_cast<std::ptrdiff_t>(x1),
                center_less(1));
      const std::size_t slice_y = (x1 - x0 + tiles - 1) / tiles;
      for (std::size_t y0 = x0; y0 < x1; y0 += slice_y) {
        const std::size_t y1 = std::min(y0 + slice_y, x1);
        std::sort(level_entries->begin() + static_cast<std::ptrdiff_t>(y0),
                  level_entries->begin() + static_cast<std::ptrdiff_t>(y1),
                  center_less(2));
      }
    }

    // Chunk into nodes; rebalance the tail so no node is underfull.
    std::vector<Entry> next_level;
    next_level.reserve(num_nodes);
    std::size_t pos = 0;
    while (pos < n) {
      std::size_t take = std::min(options_.max_entries, n - pos);
      const std::size_t remaining_after = n - pos - take;
      if (remaining_after > 0 && remaining_after < options_.min_entries) {
        // Shrink this node so the final one meets the minimum.
        take -= options_.min_entries - remaining_after;
      }
      Pinned node = AllocNode(level);
      if (!node) return kInvalidPageId;
      const NodeId node_id = node.id;
      for (std::size_t i = 0; i < take; ++i, ++pos) {
        const Entry& e = (*level_entries)[pos];
        if (!AppendEntry(node.node, e.box, level == 0 ? e.value : e.child)) {
          return kInvalidPageId;
        }
      }
      Entry parent_entry;
      parent_entry.box = node.node->ComputeBox();
      parent_entry.child = node_id;
      next_level.push_back(parent_entry);
    }
    *level_entries = std::move(next_level);
    ++level;
  }
  return kInvalidPageId;
}

void RTree3::BulkLoad(std::vector<std::pair<Box3, Value>> entries,
                      Packing packing) {
  Clear();
  if (!healthy() || entries.empty()) return;
  size_.store(entries.size(), std::memory_order_relaxed);
  // Clear() allocated a fresh empty leaf root; the packed tree replaces it.
  FreeNode(root_);
  root_ = kInvalidPageId;

  std::vector<Entry> leaf_entries;
  leaf_entries.reserve(entries.size());
  for (auto& [box, value] : entries) {
    Entry e;
    e.box = box;
    e.value = value;
    leaf_entries.push_back(e);
  }
  const NodeId new_root = BuildPacked(&leaf_entries, packing);
  if (new_root != kInvalidPageId) root_ = new_root;
  SyncMetrics();
}

void RTree3::Search(const Box3& query, const Visitor& visitor) const {
  // An empty query intersects nothing (Box3::Intersects) — also the
  // kernel's precondition that the query box is non-empty.
  if (query.Empty()) return;
  if (resident_) {
    SearchResident(query, visitor);
  } else {
    SearchPaged(query, visitor);
  }
}

void RTree3::SearchResident(const Box3& query, const Visitor& visitor) const {
  if (!healthy()) return;
  const Pinned root = Pin(root_);
  if (!root) return;
  // Iterative DFS along the child-pointer column — no node table lookups,
  // no pool, no metrics push (the writer pushes those).
  std::vector<std::uint32_t> hits(options_.max_entries + 1);
  std::vector<const Node*> stack = {root.node};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    const std::size_t num_hits = soa::IntersectBoxes(
        node->lo(0), node->lo(1), node->lo(2), node->hi(0), node->hi(1),
        node->hi(2), node->count, query, hits.data());
    if (node->IsLeaf()) {
      for (std::size_t h = 0; h < num_hits; ++h) {
        const std::uint32_t i = hits[h];
        visitor(node->BoxAt(i), node->word()[i]);
      }
    } else {
      for (std::size_t h = 0; h < num_hits; ++h) {
        stack.push_back(node->child(hits[h]));
      }
    }
  }
}

void RTree3::SearchPaged(const Box3& query, const Visitor& visitor) const {
  if (size() == 0 || !healthy()) return;
  // Iterative DFS to avoid recursion-depth concerns on adversarial trees.
  std::vector<std::uint32_t> hits(options_.max_entries + 1);
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    Pinned p = Pin(id);
    if (!p) return;
    const Node* node = p.node;
    const std::size_t num_hits = soa::IntersectBoxes(
        node->lo(0), node->lo(1), node->lo(2), node->hi(0), node->hi(1),
        node->hi(2), node->count, query, hits.data());
    if (node->IsLeaf()) {
      for (std::size_t h = 0; h < num_hits; ++h) {
        const std::uint32_t i = hits[h];
        visitor(node->BoxAt(i), node->word()[i]);
      }
    } else {
      for (std::size_t h = 0; h < num_hits; ++h) {
        stack.push_back(static_cast<NodeId>(node->word()[hits[h]]));
      }
    }
  }
  SyncMetrics();
}

std::vector<RTree3::Value> RTree3::SearchValues(const Box3& query) const {
  std::vector<Value> out;
  Search(query, [&out](const Box3&, Value v) { out.push_back(v); });
  return out;
}

std::vector<RTree3::Value> RTree3::SearchIf(const Filter& filter) const {
  std::vector<Value> out;
  // Tests one node's entries; `push(i)` queues internal entry i's child.
  auto visit = [&](const Node& node, const auto& push) {
    for (std::size_t i = 0; i < node.count; ++i) {
      if (node.IsLeaf()) {
        if (filter.Accept(node.BoxAt(i))) out.push_back(node.word()[i]);
      } else if (filter.Enter(node.BoxAt(i))) {
        push(i);
      }
    }
  };
  if (resident_) {
    if (!healthy()) return out;
    const Pinned root = Pin(root_);
    if (!root) return out;
    std::vector<const Node*> stack = {root.node};
    while (!stack.empty()) {
      const Node* node = stack.back();
      stack.pop_back();
      visit(*node, [&](std::size_t i) { stack.push_back(node->child(i)); });
    }
    return out;
  }
  if (size() == 0 || !healthy()) return out;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    Pinned p = Pin(stack.back());
    stack.pop_back();
    if (!p) return out;
    visit(*p.node, [&](std::size_t i) {
      stack.push_back(static_cast<NodeId>(p.node->word()[i]));
    });
  }
  SyncMetrics();
  return out;
}

std::size_t RTree3::height() const {
  if (!healthy()) return 0;
  Pinned root = Pin(root_);
  if (!root) return 0;
  return root.node->level + 1;
}

std::size_t RTree3::num_nodes() const {
  if (!healthy()) return 0;
  std::size_t count = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    Pinned p = Pin(id);
    if (!p) return count;
    ++count;
    if (!p.node->IsLeaf()) {
      for (std::size_t i = 0; i < p.node->count; ++i) {
        stack.push_back(static_cast<NodeId>(p.node->word()[i]));
      }
    }
  }
  return count;
}

void RTree3::Clear() {
  // Resetting the store frees every node at once; it is also the recovery
  // path out of a poison.
  if (resident_) {
    nodes_.clear();
    free_ids_.clear();
  } else {
    if (util::Status s = pool_->DropAll(); !s.ok()) {
      Poison(s);
      return;
    }
    if (util::Status s = storage_->Reset(); !s.ok()) {
      Poison(s);
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(ctl_.mu);
    ctl_.status = util::Status::Ok();
    ctl_.poisoned.store(false, std::memory_order_release);
  }
  root_ = kInvalidPageId;
  size_.store(0, std::memory_order_relaxed);
  Pinned root = AllocNode(0);
  if (root) root_ = root.id;
  SyncMetrics();
}

void RTree3::SetMetrics(util::MetricsRegistry* registry,
                        const std::string& prefix) {
  if (registry == nullptr) {
    // Withdraw this tree's contribution from the (possibly shared) frames
    // gauge so the registry's sums stay correct.
    if (instruments_.frames != nullptr) {
      std::lock_guard<std::mutex> lock(ctl_.mu);
      if (ctl_.pushed.frames != 0) {
        instruments_.frames->Add(-ctl_.pushed.frames);
        ctl_.pushed.frames = 0;
      }
    }
    instruments_ = Instruments{};
    return;
  }
  instruments_.splits = registry->GetCounter(prefix + "splits");
  instruments_.hits = registry->GetCounter(prefix + "pages.hits");
  instruments_.misses = registry->GetCounter(prefix + "pages.misses");
  instruments_.evictions = registry->GetCounter(prefix + "pages.evictions");
  instruments_.writebacks = registry->GetCounter(prefix + "pages.writebacks");
  instruments_.reads = registry->GetCounter(prefix + "pages.reads");
  instruments_.writes = registry->GetCounter(prefix + "pages.writes");
  instruments_.frames = registry->GetGauge(prefix + "pages.frames");
  SyncMetrics();
}

void RTree3::SyncMetrics() const {
  if (instruments_.splits == nullptr) return;
  const storage::BufferPoolStats pool_stats = this->pool_stats();
  const storage::StorageStats storage_stats = this->storage_stats();
  const auto frames = static_cast<std::int64_t>(pool_frames());
  const std::uint64_t splits = splits_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ctl_.mu);
  Pushed& last = ctl_.pushed;
  instruments_.splits->Increment(splits - last.splits);
  last.splits = splits;
  instruments_.hits->Increment(pool_stats.hits - last.hits);
  last.hits = pool_stats.hits;
  instruments_.misses->Increment(pool_stats.misses - last.misses);
  last.misses = pool_stats.misses;
  instruments_.evictions->Increment(pool_stats.evictions - last.evictions);
  last.evictions = pool_stats.evictions;
  instruments_.writebacks->Increment(pool_stats.writebacks - last.writebacks);
  last.writebacks = pool_stats.writebacks;
  instruments_.reads->Increment(storage_stats.page_reads - last.reads);
  last.reads = storage_stats.page_reads;
  instruments_.writes->Increment(storage_stats.page_writes - last.writes);
  last.writes = storage_stats.page_writes;
  instruments_.frames->Add(frames - last.frames);
  last.frames = frames;
}

util::Status RTree3::CheckInvariants() const {
  if (util::Status s = storage_status(); !s.ok()) return s;
  std::size_t leaf_entries = 0;
  std::size_t reachable = 0;
  util::Status status = util::Status::Ok();

  std::function<void(NodeId, bool)> visit = [&](NodeId id, bool is_root) {
    if (!status.ok()) return;
    Pinned p = Pin(id);
    if (!p) {
      status = storage_status();
      if (status.ok()) status = util::Status::Internal("unpinnable node");
      return;
    }
    ++reachable;
    const Node* node = p.node;
    if (!is_root && node->count < options_.min_entries) {
      status = util::Status::Internal("underfull node");
      return;
    }
    if (node->count > options_.max_entries) {
      status = util::Status::Internal("overfull node");
      return;
    }
    for (std::size_t i = 0; i < node->count; ++i) {
      if (node->IsLeaf()) {
        ++leaf_entries;
        continue;
      }
      const auto child_id = static_cast<NodeId>(node->word()[i]);
      if (child_id == kInvalidPageId) {
        status = util::Status::Internal("missing child");
        return;
      }
      {
        Pinned child = Pin(child_id);
        if (!child) {
          status = storage_status();
          if (status.ok()) status = util::Status::Internal("unpinnable node");
          return;
        }
        if (child.node->level + 1 != node->level) {
          status = util::Status::Internal("level mismatch");
          return;
        }
        if (!SameBox(node->BoxAt(i), child.node->ComputeBox())) {
          status = util::Status::Internal("stale bounding box");
          return;
        }
        if (resident_ && node->child(i) != child.node) {
          status = util::Status::Internal("stale resident child pointer");
          return;
        }
      }
      visit(child_id, false);
      if (!status.ok()) return;
    }
  };
  visit(root_, true);
  if (status.ok()) {
    Pinned root = Pin(root_);
    if (root && !root.node->IsLeaf() && root.node->count == 0) {
      status = util::Status::Internal("empty internal root");
    }
  }
  if (status.ok() && leaf_entries != size()) {
    status = util::Status::Internal("size mismatch");
  }
  if (status.ok() && resident_ &&
      nodes_.size() - free_ids_.size() != reachable) {
    status = util::Status::Internal("node table leak");
  }
  return status;
}

}  // namespace modb::index
