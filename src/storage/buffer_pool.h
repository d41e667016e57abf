#ifndef MODB_STORAGE_BUFFER_POOL_H_
#define MODB_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "storage/storage_manager.h"
#include "util/status.h"

namespace modb::storage {

/// Converts between a client's materialised page object and the byte
/// payload the storage manager persists. The pool caches *objects* (frames
/// hold the decoded form), so a hit costs a hash lookup, not a decode —
/// encode/decode run only at the storage boundary: miss and eviction
/// writeback.
struct PageCodec {
  std::function<util::Status(const void* object, std::string* out)> encode;
  std::function<util::Result<std::shared_ptr<void>>(std::string_view)> decode;
};

/// Identity codec over `std::string` payloads, for clients (and tests)
/// that want plain byte pages.
PageCodec StringPageCodec();

struct BufferPoolOptions {
  /// Frame budget; 0 = unbounded (nothing is ever evicted). The cap is
  /// soft: when every frame is pinned the pool admits the extra frame
  /// rather than failing, and counts it in `stats().overflow_frames`.
  std::size_t capacity_pages = 0;
};

struct BufferPoolStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Dirty frames written back to storage on eviction. Pages are written
  /// only to make room: a tree that fits its pool never writes one.
  std::uint64_t writebacks = 0;
  std::uint64_t creates = 0;
  std::uint64_t frees = 0;
  std::uint64_t overflow_frames = 0;
};

/// Page cache between an index and its `IStorageManager`: bounded frames,
/// pin/unpin refcounts via RAII handles, clock (second-chance) eviction of
/// unpinned frames, dirty-frame writeback. All operations are internally
/// synchronised by one mutex, so concurrent readers of an index may fault
/// pages in and advance the clock simultaneously; mutating a pinned
/// *object* concurrently is the client's concern (the R*-tree's
/// writers-exclusive contract covers it).
class BufferPool {
 public:
  BufferPool(IStorageManager* storage, PageCodec codec,
             BufferPoolOptions options);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pinned reference to a cached page object. The frame cannot be evicted
  /// while a handle to it lives; destruction unpins.
  class Handle {
   public:
    Handle() = default;
    Handle(Handle&& other) noexcept { *this = std::move(other); }
    Handle& operator=(Handle&& other) noexcept;
    ~Handle() { Release(); }

    Handle(const Handle&) = delete;
    Handle& operator=(const Handle&) = delete;

    bool valid() const { return pool_ != nullptr; }
    PageId id() const { return id_; }
    void* get() const { return object_; }
    /// Marks the frame dirty: its object diverged from storage and must be
    /// written back on eviction.
    void MarkDirty();
    /// Unpins early (idempotent).
    void Release();

   private:
    friend class BufferPool;
    Handle(BufferPool* pool, PageId id, void* object)
        : pool_(pool), id_(id), object_(object) {}

    BufferPool* pool_ = nullptr;
    PageId id_ = kInvalidPageId;
    void* object_ = nullptr;
  };

  /// Returns a pinned handle to page `id`, faulting it in from storage on
  /// a miss (decode errors and storage read errors surface here).
  util::Result<Handle> Fetch(PageId id);

  /// Allocates a fresh page holding `object` and returns it pinned and
  /// dirty (nothing touches storage until eviction).
  util::Result<Handle> Create(std::shared_ptr<void> object);

  /// Drops the page from the pool and frees it in storage. The frame must
  /// be unpinned (release handles first).
  util::Status Free(PageId id);

  /// Drops every frame without writeback (the index `Clear` path, paired
  /// with `IStorageManager::Reset`). Fails when any frame is pinned.
  util::Status DropAll();

  BufferPoolStats stats() const;
  std::size_t num_frames() const;
  std::size_t pinned_frames() const;
  /// Entries in the clock ring, stale ones included. Stays within about
  /// twice `num_frames()`: freed pages leave stale entries behind, which
  /// are compacted away once they outnumber the live frames.
  std::size_t clock_ring_size() const;
  IStorageManager* storage() const { return storage_; }
  const BufferPoolOptions& options() const { return options_; }

 private:
  struct Frame {
    std::shared_ptr<void> object;
    std::uint32_t pins = 0;
    bool dirty = false;
    bool referenced = true;  // clock second-chance bit
    /// Admission stamp, matched by the frame's one live clock entry.
    std::uint64_t admission = 0;
  };
  /// Clock ring slot. Stale once its page left the pool or was admitted
  /// again under a recycled id (the stamps then differ).
  struct ClockEntry {
    PageId id = kInvalidPageId;
    std::uint64_t admission = 0;
  };

  void Unpin(PageId id);
  void MarkDirtyInternal(PageId id);
  /// Admits a frame for `id`, evicting if over budget. Caller holds `mu_`.
  util::Status AdmitLocked(PageId id, Frame frame);
  /// Clock sweep for an evictable (unpinned) victim; `*evicted` reports
  /// whether one was found. Caller holds `mu_`.
  util::Status EvictOneLocked(bool* evicted);
  util::Status WriteBackLocked(PageId id, Frame& frame);
  /// The live frame `entry` refers to, or nullptr when it is stale.
  Frame* LiveFrameLocked(const ClockEntry& entry);
  /// Drops stale ring entries, keeping order and the hand's position.
  void CompactClockLocked();

  IStorageManager* const storage_;
  const PageCodec codec_;
  const BufferPoolOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<PageId, Frame> frames_;
  /// Clock ring of resident pages. Stale entries are removed during
  /// sweeps, and all at once when they outnumber the live frames — a pool
  /// that never fills (never sweeps) would otherwise grow one entry per
  /// `Create` forever.
  std::vector<ClockEntry> clock_;
  std::size_t clock_hand_ = 0;
  std::uint64_t admissions_ = 0;
  BufferPoolStats stats_;
};

}  // namespace modb::storage

#endif  // MODB_STORAGE_BUFFER_POOL_H_
