#ifndef MODB_INDEX_RTREE3_H_
#define MODB_INDEX_RTREE3_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "geo/box.h"
#include "storage/buffer_pool.h"
#include "storage/storage_manager.h"
#include "util/metrics.h"
#include "util/status.h"

namespace modb::index {

/// 3-D R*-tree over (x, y, t) time-space.
///
/// This is the hierarchical spatial access method the paper's §4.2 calls
/// for: objects are stored as 3-dimensional rectangles (o-plane
/// approximations) and range queries retrieve, in sublinear time, every
/// rectangle intersecting a query box.
///
/// The implementation follows Beckmann et al.'s R*-tree heuristics:
///   - leaf-level ChooseSubtree minimises overlap enlargement (ties broken
///     by volume enlargement, then volume),
///   - node splits pick the axis with the smallest margin sum, then the
///     distribution with the smallest overlap (ties by volume).
/// Forced reinsertion is not implemented; deletions use the classical
/// condense-tree + reinsert of orphaned entries.
///
/// Node layout: each node is one heap block — a small header (level,
/// count, capacity) followed by six coordinate columns, the word column
/// and, for internal nodes, the resident child-pointer column, each sized
/// `max_entries + 1` at run time. The per-node intersection test is one
/// batched compare over contiguous doubles (`soa::IntersectBoxes`). Nodes
/// carry no parent links; the mutation paths operate on explicit
/// root-to-leaf paths and edit the nodes on them in place.
///
/// Node storage: nodes are addressed by `NodeId`. A resident tree (the
/// default: in-memory storage, unbounded pool) owns its blocks directly in
/// an id-indexed node table with a free list — no buffer pool, no storage
/// manager, no serialisation. A paged tree (disk storage or a bounded pool)
/// keeps its nodes as pages behind a `storage::BufferPool` in front of a
/// `storage::IStorageManager`, so its RAM footprint is the pool, not the
/// index; the page encoding is unchanged. A node that leaves the tree is
/// freed at once in both.
///
/// Concurrency: any number of threads may search at once, or one thread
/// may mutate alone — never both. `size()`, `splits()` and `pool_stats()`
/// may be read at any time (atomic counters / internally locked pool, or
/// no pool).
///
/// Failure model: a resident tree cannot fail, but a disk backend can
/// (injected faults, full disk). Because the classic R-tree API is
/// void/bool, storage errors poison the tree instead of being returned
/// per-call: `storage_status()` turns sticky-non-OK, mutations become
/// no-ops, and searches return nothing once the poison is set (a search
/// that hits the fault midway returns what it reached). `TimeSpaceIndex`
/// surfaces the poison as a `Status` on its own API; `Clear()` (which
/// resets the backing store) is the recovery path.
class RTree3 {
 public:
  struct Options {
    /// Maximum entries per node (fan-out). Must be >= 4.
    std::size_t max_entries = 16;
    /// Minimum entries per node after a split / before condensing.
    /// Must satisfy 2 <= min_entries <= max_entries / 2.
    std::size_t min_entries = 6;
    /// Page store for the nodes. Default: in-memory, unbounded pool, which
    /// selects resident mode (see the class comment); any other storage
    /// selects paged mode.
    storage::StorageConfig storage;
  };

  using Value = std::uint64_t;
  using NodeId = storage::PageId;
  /// Visitor for Search; return value is ignored.
  using Visitor = std::function<void(const geo::Box3&, Value)>;

  /// How `BulkLoad` orders entries into nodes.
  enum class Packing {
    /// Sort-Tile-Recursive over all three axes (x slices, y runs, t).
    kSortTileRecursive,
    /// Sorted by x-center alone at every level: for entries whose x axis
    /// is a one-dimensional key, each node covers one contiguous key range.
    kXOrder,
  };

  /// Box predicate pair for `SearchIf`. `Enter` decides whether the search
  /// descends below an internal entry with bounding box `box`, `Accept`
  /// whether a leaf entry is reported. `Enter` must hold for every box
  /// that covers a box `Accept` holds for: a node test may be loose, but
  /// never prunes an accepted entry.
  class Filter {
   public:
    virtual ~Filter() = default;
    virtual bool Enter(const geo::Box3& box) const = 0;
    virtual bool Accept(const geo::Box3& box) const = 0;
  };

  RTree3();
  explicit RTree3(Options options);
  ~RTree3();

  RTree3(const RTree3&) = delete;
  RTree3& operator=(const RTree3&) = delete;
  RTree3(RTree3&&) = delete;
  RTree3& operator=(RTree3&&) = delete;

  /// Inserts `value` with bounding box `box` (must be non-empty).
  void Insert(const geo::Box3& box, Value value);

  /// Replaces the tree contents with `entries`, packed bottom-up — by
  /// default with the Sort-Tile-Recursive (STR) algorithm: O(n log n) and
  /// produces nearly full, well-clustered nodes — much faster than
  /// repeated `Insert` for the initial fleet load (benchmarked in E8b /
  /// exp_bulk_load). The old tree is dropped first (`Clear`).
  void BulkLoad(std::vector<std::pair<geo::Box3, Value>> entries,
                Packing packing = Packing::kSortTileRecursive);

  /// Removes the entry that was inserted with exactly this `box` and
  /// `value`. Returns false when no such entry exists.
  bool Remove(const geo::Box3& box, Value value);

  /// Removes, for every box in `boxes`, one entry inserted with exactly
  /// that box and `value` (a box listed twice removes two identical
  /// entries). All matches are found in one descent that enters only
  /// children whose box contains a still-missing target — parent boxes are
  /// exact covers — then the tree condenses bottom-up once and reinserts
  /// the orphaned entries. Returns the number of entries removed, short of
  /// `boxes.size()` when some box has no matching entry.
  std::size_t RemoveBatch(std::span<const geo::Box3> boxes, Value value);

  /// Calls `visitor` for every stored entry whose box intersects `query`.
  void Search(const geo::Box3& query, const Visitor& visitor) const;

  /// Convenience: collects the values of all intersecting entries
  /// (duplicates possible when a value was inserted under several boxes).
  std::vector<Value> SearchValues(const geo::Box3& query) const;

  /// Collects the values of the leaf entries `filter` accepts, descending
  /// only below the internal entries it enters.
  std::vector<Value> SearchIf(const Filter& filter) const;

  /// Number of stored (box, value) entries. Safe to read concurrently with
  /// mutations (the value is exact between operations, momentarily stale
  /// within one).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// Height of the tree (1 for a single leaf; 0 when poisoned).
  std::size_t height() const;

  /// Number of nodes (for index-size accounting in benchmarks).
  std::size_t num_nodes() const;

  /// Removes all entries: frees the whole tree and resets the backing
  /// store, which is also the recovery path after a storage poison.
  void Clear();

  /// Sticky storage-layer error (see the failure model above); OK for the
  /// in-memory backend.
  util::Status storage_status() const;

  /// Registers per-tree I/O and split instruments under `prefix`
  /// (`<prefix>splits`, `<prefix>pages.hits|misses|evictions|writebacks|
  /// reads|writes`, gauge `<prefix>pages.frames`). Several trees may share
  /// a prefix: counters aggregate by delta, and a tree withdraws its frames
  /// from the gauge when detached or destroyed, so the gauge reads the
  /// frames of the live trees. A resident tree has no pages, so its page
  /// instruments stay at 0. The registry must outlive the tree.
  void SetMetrics(util::MetricsRegistry* registry, const std::string& prefix);

  /// Buffer-pool and page-store counters; all zero for a resident tree.
  storage::BufferPoolStats pool_stats() const {
    return pool_ ? pool_->stats() : storage::BufferPoolStats{};
  }
  storage::StorageStats storage_stats() const {
    return storage_ ? storage_->stats() : storage::StorageStats{};
  }
  std::size_t pool_frames() const { return pool_ ? pool_->num_frames() : 0; }
  /// Pages the page store holds (0 for a resident tree). On a healthy
  /// paged tree this is `num_nodes()`, without the traversal.
  std::size_t num_pages() const { return storage_ ? storage_->num_pages() : 0; }
  /// Node splits performed. Concurrent-read-safe like `size()`.
  std::uint64_t splits() const {
    return splits_.load(std::memory_order_relaxed);
  }

  /// Validates the structural invariants (entry counts, bounding boxes,
  /// uniform leaf depth, resident child pointers, and — resident — that
  /// every live node-table slot is reachable).
  /// Also fails when the tree is poisoned. Used by tests.
  util::Status CheckInvariants() const;

 private:
  struct Node;
  struct Entry;
  struct Pinned;
  struct RemoveScan;
  struct RemoveStep;
  struct NodeFree {
    void operator()(Node* node) const;
  };
  using NodeBlock = std::unique_ptr<Node, NodeFree>;

  static util::Status EncodeNode(const void* object, std::string* out);
  static util::Result<std::shared_ptr<void>> DecodeNode(
      std::string_view bytes, std::size_t capacity);

  /// A detached block for a node at `level` with `max_entries + 1` slots.
  NodeBlock NewNode(std::uint32_t level) const;
  Pinned Pin(NodeId id) const;
  Pinned AllocNode(std::uint32_t level);
  /// Appends (box, word) to `node`, resolving the resident child pointer
  /// for internal entries. Returns false on storage failure.
  bool AppendEntry(Node* node, const geo::Box3& box, std::uint64_t word);
  /// Index of the slot in `node` whose word is `child` (npos = poisoned).
  std::size_t FindChildSlot(const Node& node, NodeId child) const;
  /// Frees a node that left the tree (resident: returns its node-table
  /// slot to the free list; paged: frees its page).
  void FreeNode(NodeId id);
  void Poison(const util::Status& status) const;

  /// Root-to-target descent (R* ChooseSubtree scoring); returns the id
  /// path, empty on storage failure.
  std::vector<NodeId> ChoosePath(const geo::Box3& box,
                                 std::size_t target_level) const;
  void SplitAlongPath(std::vector<NodeId>& path, std::size_t depth);
  void AdjustPathBoxes(const std::vector<NodeId>& path, std::size_t depth);
  void InsertEntryAtLevel(const Entry& entry, std::size_t level);
  /// One step of the `RemoveBatch` descent below node `id`, looking for
  /// the targets listed in `scan` slots [begin, end). Erases what it finds,
  /// condenses the node when it falls underfull (non-root), and reports
  /// the outcome for the parent to apply.
  RemoveStep RemoveUnder(NodeId id, bool is_root, std::size_t begin,
                         std::size_t end, RemoveScan* scan);
  /// Packs `level_entries` (leaf entries on entry) bottom-up into fresh
  /// nodes; returns the new root id or kInvalidPageId on storage failure.
  NodeId BuildPacked(std::vector<Entry>* level_entries, Packing packing);

  void SearchResident(const geo::Box3& query, const Visitor& visitor) const;
  void SearchPaged(const geo::Box3& query, const Visitor& visitor) const;

  void SyncMetrics() const;
  bool healthy() const;

  struct Instruments {
    util::Counter* splits = nullptr;
    util::Counter* hits = nullptr;
    util::Counter* misses = nullptr;
    util::Counter* evictions = nullptr;
    util::Counter* writebacks = nullptr;
    util::Counter* reads = nullptr;
    util::Counter* writes = nullptr;
    util::Gauge* frames = nullptr;
  };
  struct Pushed {
    std::uint64_t splits = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::int64_t frames = 0;
  };
  /// Shared mutable state concurrent searches may touch (poison writes,
  /// metric-delta baselines).
  struct ControlBlock {
    std::mutex mu;
    util::Status status;
    /// Mirrors `status.ok()`, so the per-node health checks take no lock.
    std::atomic<bool> poisoned{false};
    Pushed pushed;
  };

  Options options_;
  /// Paged mode only (both null for a resident tree).
  std::unique_ptr<storage::IStorageManager> storage_;
  mutable std::unique_ptr<storage::BufferPool> pool_;
  NodeId root_ = storage::kInvalidPageId;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> splits_{0};
  mutable ControlBlock ctl_;
  Instruments instruments_;

  // ---- Resident node ownership ----
  bool resident_ = false;
  /// Node table: slot `id` owns node `id`; null slots are on `free_ids_`.
  std::vector<NodeBlock> nodes_;
  std::vector<NodeId> free_ids_;
};

}  // namespace modb::index

#endif  // MODB_INDEX_RTREE3_H_
