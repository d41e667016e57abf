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
#include "index/epoch.h"
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
/// batched compare over contiguous doubles (`soa::IntersectBoxes`), and a
/// copy-on-write clone is one allocation plus eight short copies. Nodes
/// carry no parent links; the mutation paths operate on explicit
/// root-to-leaf paths.
///
/// Node storage: nodes are addressed by `NodeId`. A resident tree (the
/// default: in-memory storage, unbounded pool) owns its blocks directly in
/// an id-indexed node table with a free list — no buffer pool, no storage
/// manager, no serialisation. A paged tree (disk storage or a bounded pool)
/// keeps its nodes as pages behind a `storage::BufferPool` in front of a
/// `storage::IStorageManager`, so its RAM footprint is the pool, not the
/// index; the page encoding is unchanged.
///
/// Concurrent reads — two regimes:
///   - Resident mode (in-memory backend and unbounded pool, the defaults):
///     `Search` / `SearchValues` are lock-free and safe *concurrently with
///     a writer*. Mutations are copy-on-write — a writer path-copies every
///     node it changes into fresh nodes, publishes the new root atomically,
///     and retires the replaced nodes behind an epoch-based grace period
///     (`epoch::EpochManager`), so readers always traverse an immutable
///     snapshot. Writers still need external mutual exclusion among
///     themselves. `BeginWriteBatch` / `EndWriteBatch` defer publication so
///     a multi-step mutation (an upsert's removes + inserts) becomes
///     visible to readers atomically.
///   - Paged mode (disk backend or bounded pool): mutations are in-place
///     and readers need the historical contract — any number of threads
///     may query simultaneously provided no mutation is in flight.
/// `size()`, `splits()` and `pool_stats()` are safe to call concurrently
/// with anything (atomic counters / internally locked pool, or no pool);
/// `height()` / `num_nodes()` / `CheckInvariants()` keep the
/// no-mutation-in-flight requirement in both modes.
///
/// Failure model: a resident tree cannot fail, but a disk backend can
/// (injected faults, full disk). Because the classic R-tree API is
/// void/bool, storage errors poison the tree instead of being returned
/// per-call: `storage_status()` turns sticky-non-OK, mutations become
/// no-ops, searches return what is reachable (lock-free searches return
/// nothing — a poisoned resident tree stops publishing). `TimeSpaceIndex`
/// surfaces the poison as a `Status` on its own API; `Clear()` (which
/// resets the backing store) is the recovery path — on a poisoned tree it
/// requires readers to be quiesced, since recovery drops every node.
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
    /// Called once per search, after the search has pinned the tree
    /// snapshot it traverses and before any test. Side state a writer
    /// publishes before the tree's next publication and a filter loads
    /// here is at least as new as that snapshot.
    virtual void Begin() {}
    virtual bool Enter(const geo::Box3& box) const = 0;
    virtual bool Accept(const geo::Box3& box) const = 0;
  };

  RTree3();
  explicit RTree3(Options options);
  ~RTree3();

  RTree3(const RTree3&) = delete;
  RTree3& operator=(const RTree3&) = delete;
  /// Moves require the source to be quiesced (no concurrent readers or
  /// writers) — they reseat atomics non-atomically.
  RTree3(RTree3&&) noexcept;
  RTree3& operator=(RTree3&&) noexcept;

  /// Inserts `value` with bounding box `box` (must be non-empty).
  void Insert(const geo::Box3& box, Value value);

  /// Replaces the tree contents with `entries`, packed bottom-up — by
  /// default with the Sort-Tile-Recursive (STR) algorithm: O(n log n) and
  /// produces nearly full, well-clustered nodes — much faster than
  /// repeated `Insert` for the initial fleet load (benchmarked in E8b /
  /// exp_bulk_load). In resident mode the packed tree is built aside and
  /// swapped in with one root publication, so concurrent readers see
  /// either the old contents or the new, never a partial load.
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
  /// only below the internal entries it enters. Same concurrency contract
  /// as `Search`: lock-free on a resident tree.
  std::vector<Value> SearchIf(Filter& filter) const;

  /// True when this tree runs the copy-on-write / epoch scheme, i.e.
  /// `Search` / `SearchValues` are lock-free and safe concurrently with a
  /// (single, externally serialised) writer.
  bool concurrent_reads() const { return resident_; }

  /// Defers publication of mutations to concurrent readers until the
  /// matching `EndWriteBatch`, making the batch atomic to them (no state
  /// where an upsert's removes are visible but its inserts are not).
  /// Nestable; no-ops outside resident mode. Prefer `BatchScope`.
  void BeginWriteBatch();
  void EndWriteBatch();

  /// RAII `BeginWriteBatch` / `EndWriteBatch` bracket.
  class BatchScope {
   public:
    explicit BatchScope(RTree3& tree) : tree_(tree) {
      tree_.BeginWriteBatch();
    }
    ~BatchScope() { tree_.EndWriteBatch(); }
    BatchScope(const BatchScope&) = delete;
    BatchScope& operator=(const BatchScope&) = delete;

   private:
    RTree3& tree_;
  };

  /// Number of stored (box, value) entries. Safe to read concurrently with
  /// mutations (the value is exact between operations, momentarily stale
  /// within one).
  std::size_t size() const { return size_.load(std::memory_order_relaxed); }
  bool empty() const { return size() == 0; }

  /// Height of the tree (1 for a single leaf; 0 when poisoned).
  std::size_t height() const;

  /// Number of nodes (for index-size accounting in benchmarks).
  std::size_t num_nodes() const;

  /// Removes all entries. In healthy resident mode this publishes a fresh
  /// empty root and retires the old tree (safe under concurrent readers);
  /// otherwise it resets the backing store, which is also the recovery
  /// path after a storage poison (readers must be quiesced then).
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

  /// Nodes retired by copy-on-write mutations and not yet reclaimed (their
  /// grace period still covers an active reader epoch). 0 outside resident
  /// mode. Exposed for the epoch-reclamation tests.
  std::size_t retired_pages() const { return retired_.size(); }

  /// Validates the structural invariants (entry counts, bounding boxes,
  /// uniform leaf depth, resident child pointers, and — resident — that
  /// every live node-table slot is reachable or awaiting reclamation).
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
  /// Resident mode: true when `node` was created since the last
  /// publication — still private to the writer, mutable in place.
  bool IsFresh(const Node& node) const;
  /// Makes a pinned node mutable. Resident mode copies a published node
  /// into a fresh one (returned with its new id; the original is retired)
  /// and the caller repoints the parent; otherwise returns `pinned`.
  Pinned Writable(Pinned pinned);
  /// Appends (box, word) to `node`, resolving the resident child pointer
  /// for internal entries. Returns false on storage failure.
  bool AppendEntry(Node* node, const geo::Box3& box, std::uint64_t word);
  /// Index of the slot in `node` whose word is `child` (npos = poisoned).
  std::size_t FindChildSlot(const Node& node, NodeId child) const;
  /// Drops a node that left the tree: frees it immediately when it was
  /// never published (or outside resident mode), otherwise defers the free
  /// to the epoch scheme.
  void RetireOrFree(NodeId id);
  /// Resident mode: returns a node-table slot to the free list.
  void FreeResident(NodeId id);
  void Poison(const util::Status& status) const;

  /// Root-to-target descent (R* ChooseSubtree scoring); returns the id
  /// path, empty on storage failure.
  std::vector<NodeId> ChoosePath(const geo::Box3& box,
                                 std::size_t target_level) const;
  /// Resident mode: path-copies every non-fresh node on `path` into new
  /// nodes (ids updated in place) so subsequent in-place mutation never
  /// touches a published node. No-op in paged mode.
  void MakePathWritable(std::vector<NodeId>* path);
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

  /// Retires every node reachable from the current root (resident
  /// tree-swap operations: Clear, BulkLoad).
  void RetireReachable();
  /// Resident mode: publishes the current root to readers, tags the
  /// pending retirements, advances the epoch and reclaims what is past its
  /// grace period. Deferred while a write batch is open.
  void Publish();
  void MaybePublish();
  void ReclaimRetired();

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
  /// Shared mutable state the const query paths may touch concurrently
  /// (poison writes, metric-delta baselines). Behind a `shared_ptr` so the
  /// tree stays movable (`std::mutex` is not).
  struct ControlBlock {
    std::mutex mu;
    util::Status status;
    /// Mirrors `status.ok()` for the lock-free read path, which must not
    /// take `mu`.
    std::atomic<bool> poisoned{false};
    Pushed pushed;
  };

  /// One copy-on-write retirement awaiting its grace period.
  struct RetiredPage {
    std::uint64_t tag = 0;
    NodeId id = storage::kInvalidPageId;
  };

  Options options_;
  /// Paged mode only (both null for a resident tree).
  std::unique_ptr<storage::IStorageManager> storage_;
  mutable std::unique_ptr<storage::BufferPool> pool_;
  NodeId root_ = storage::kInvalidPageId;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> splits_{0};
  std::shared_ptr<ControlBlock> ctl_;
  Instruments instruments_;

  // ---- Resident node ownership and concurrent-read machinery ----
  bool resident_ = false;
  /// Node table: slot `id` owns node `id`; null slots are on `free_ids_`.
  std::vector<NodeBlock> nodes_;
  std::vector<NodeId> free_ids_;
  /// Publication generation. A node whose `born` equals it was created
  /// since the last publication: still private to the writer, mutable in
  /// place, freeable without a grace period.
  std::uint64_t generation_ = 1;
  /// Root of the snapshot readers traverse; stores happen in `Publish`.
  std::atomic<const Node*> pub_root_{nullptr};
  std::unique_ptr<epoch::EpochManager> epochs_;
  /// Published nodes unlinked by the current write (batch); tagged and
  /// moved to `retired_` at publication.
  std::vector<NodeId> pending_retire_;
  std::vector<RetiredPage> retired_;
  std::size_t batch_depth_ = 0;
};

}  // namespace modb::index

#endif  // MODB_INDEX_RTREE3_H_
