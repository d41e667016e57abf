#ifndef MODB_INDEX_RTREE3_H_
#define MODB_INDEX_RTREE3_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
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
/// Node layout: nodes store their entries in structure-of-arrays form —
/// six coordinate arrays plus a word array — so the per-node intersection
/// test is one batched compare over contiguous doubles
/// (`soa::IntersectBoxes`, auto-vectorized) instead of a pointer-chasing
/// loop over box structs. Nodes carry no parent links; the mutation paths
/// operate on explicit root-to-leaf paths.
///
/// Node storage: nodes are not heap objects linked by pointers — they are
/// pages addressed by `NodeId` and resolved through a `storage::BufferPool`
/// in front of a `storage::IStorageManager`. With the default in-memory
/// manager and an unbounded pool nothing is ever evicted or serialised; with
/// a disk manager and a bounded pool the tree's RAM footprint is the pool,
/// not the index.
///
/// Concurrent reads — two regimes:
///   - Resident mode (in-memory backend and unbounded pool, the defaults):
///     `Search` / `SearchValues` are lock-free and safe *concurrently with
///     a writer*. Mutations are copy-on-write — a writer path-copies every
///     node it changes into fresh pages, publishes the new root atomically,
///     and retires the replaced pages behind an epoch-based grace period
///     (`epoch::EpochManager`), so readers always traverse an immutable
///     snapshot. Writers still need external mutual exclusion among
///     themselves. `BeginWriteBatch` / `EndWriteBatch` defer publication so
///     a multi-step mutation (an upsert's removes + inserts) becomes
///     visible to readers atomically.
///   - Paged mode (disk backend or bounded pool): mutations are in-place
///     and readers need the historical contract — any number of threads
///     may query simultaneously provided no mutation is in flight.
/// `size()`, `splits()` and `pool_stats()` are safe to call concurrently
/// with anything (atomic counters / internally locked pool);
/// `height()` / `num_nodes()` / `CheckInvariants()` keep the
/// no-mutation-in-flight requirement in both modes.
///
/// Failure model: the in-memory backend cannot fail, but a disk backend
/// can (injected faults, full disk). Because the classic R-tree API is
/// void/bool, storage errors poison the tree instead of being returned
/// per-call: `storage_status()` turns sticky-non-OK, mutations become
/// no-ops, searches return what is reachable (lock-free searches return
/// nothing — a poisoned resident tree stops publishing). `TimeSpaceIndex`
/// surfaces the poison as a `Status` on its own API; `Clear()` (which
/// resets the backing store) is the recovery path — on a poisoned tree it
/// requires readers to be quiesced, since recovery drops every page.
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

  /// Replaces the tree contents with `entries`, packed bottom-up with the
  /// Sort-Tile-Recursive (STR) algorithm: O(n log n) and produces nearly
  /// full, well-clustered nodes — much faster than repeated `Insert` for
  /// the initial fleet load (benchmarked in E8b / exp_bulk_load). In
  /// resident mode the packed tree is built aside and swapped in with one
  /// root publication, so concurrent readers see either the old contents
  /// or the new, never a partial load.
  void BulkLoad(std::vector<std::pair<geo::Box3, Value>> entries);

  /// Removes the entry that was inserted with exactly this `box` and
  /// `value`. Returns false when no such entry exists.
  bool Remove(const geo::Box3& box, Value value);

  /// Calls `visitor` for every stored entry whose box intersects `query`.
  void Search(const geo::Box3& query, const Visitor& visitor) const;

  /// Convenience: collects the values of all intersecting entries
  /// (duplicates possible when a value was inserted under several boxes).
  std::vector<Value> SearchValues(const geo::Box3& query) const;

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

  /// Writes every dirty node page back and commits the storage manager.
  /// The checkpoint protocol calls this before snapshotting so a published
  /// checkpoint's page file covers the tree it snapshotted.
  util::Status FlushStorage();

  /// Sticky storage-layer error (see the failure model above); OK for the
  /// in-memory backend.
  util::Status storage_status() const;

  /// Registers per-tree I/O and split instruments under `prefix`
  /// (`<prefix>splits`, `<prefix>pages.hits|misses|evictions|writebacks|
  /// reads|writes`, gauge `<prefix>pages.frames`). Several trees may share
  /// a prefix: counters aggregate by delta.
  void SetMetrics(util::MetricsRegistry* registry, const std::string& prefix);

  storage::BufferPoolStats pool_stats() const { return pool_->stats(); }
  storage::StorageStats storage_stats() const { return storage_->stats(); }
  const storage::IStorageManager& storage_manager() const { return *storage_; }
  std::size_t pool_frames() const { return pool_->num_frames(); }
  /// Node splits performed. Concurrent-read-safe like `size()`.
  std::uint64_t splits() const {
    return splits_.load(std::memory_order_relaxed);
  }

  /// Pages retired by copy-on-write mutations and not yet reclaimed (their
  /// grace period still covers an active reader epoch). 0 outside resident
  /// mode. Exposed for the epoch-reclamation tests.
  std::size_t retired_pages() const { return retired_.size(); }

  /// Validates the structural invariants (entry counts, bounding boxes,
  /// uniform leaf depth, resident child pointers). Also fails when the
  /// tree is poisoned. Used by tests.
  util::Status CheckInvariants() const;

 private:
  struct Node;
  struct Entry;
  struct Pinned;

  static util::Status EncodeNode(const void* object, std::string* out);
  static util::Result<std::shared_ptr<void>> DecodeNode(
      std::string_view bytes);
  static storage::PageCodec NodeCodec();

  Pinned Pin(NodeId id) const;
  Pinned AllocNode(std::uint32_t level);
  /// Appends (box, word) to `node`, resolving the resident child pointer
  /// for internal entries. Returns false on storage failure.
  bool AppendEntry(Node* node, const geo::Box3& box, std::uint64_t word);
  /// Index of the slot in `node` whose word is `child` (npos = poisoned).
  std::size_t FindChildSlot(const Node& node, NodeId child) const;
  /// Drops a node that left the tree: frees it immediately when it was
  /// never published (or outside resident mode), otherwise defers the free
  /// to the epoch scheme.
  void RetireOrFree(NodeId id);
  void Poison(const util::Status& status) const;

  /// Root-to-target descent (R* ChooseSubtree scoring); returns the id
  /// path, empty on storage failure.
  std::vector<NodeId> ChoosePath(const geo::Box3& box,
                                 std::size_t target_level) const;
  /// Resident mode: path-copies every non-fresh node on `path` into new
  /// pages (ids updated in place) so subsequent in-place mutation never
  /// touches a published node. No-op in paged mode.
  void MakePathWritable(std::vector<NodeId>* path);
  void SplitAlongPath(std::vector<NodeId>& path, std::size_t depth);
  void AdjustPathBoxes(const std::vector<NodeId>& path, std::size_t depth);
  void CondenseAlongPath(const std::vector<NodeId>& path,
                         std::vector<Entry>* orphans);
  void InsertEntryAtLevel(const Entry& entry, std::size_t level);
  /// Depth-first match search for `Remove`; on success `path` holds the
  /// root-to-leaf id path and `entry_index` the slot within the leaf.
  bool FindRemovePath(NodeId id, const geo::Box3& box, Value value,
                      std::vector<NodeId>* path,
                      std::size_t* entry_index) const;
  /// STR-packs `level_entries` (leaf entries on entry) bottom-up into fresh
  /// nodes; returns the new root id or kInvalidPageId on storage failure.
  NodeId BuildPacked(std::vector<Entry>* level_entries);

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
  std::unique_ptr<storage::IStorageManager> storage_;
  mutable std::unique_ptr<storage::BufferPool> pool_;
  NodeId root_ = storage::kInvalidPageId;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::uint64_t> splits_{0};
  std::shared_ptr<ControlBlock> ctl_;
  Instruments instruments_;

  // ---- Resident concurrent-read machinery (see the class comment) ----
  bool resident_ = false;
  /// Root of the snapshot readers traverse; stores happen in `Publish`.
  std::atomic<const Node*> pub_root_{nullptr};
  std::unique_ptr<epoch::EpochManager> epochs_;
  /// Pages created since the last publication: still private to the
  /// writer, mutable in place, freeable without a grace period.
  std::unordered_set<NodeId> fresh_;
  /// Published pages unlinked by the current write (batch); tagged and
  /// moved to `retired_` at publication.
  std::vector<NodeId> pending_retire_;
  std::vector<RetiredPage> retired_;
  std::size_t batch_depth_ = 0;
};

}  // namespace modb::index

#endif  // MODB_INDEX_RTREE3_H_
