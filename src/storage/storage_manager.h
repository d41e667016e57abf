#ifndef MODB_STORAGE_STORAGE_MANAGER_H_
#define MODB_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace modb::storage {

/// Identifier of one fixed-size page in a storage manager.
using PageId = std::uint64_t;
inline constexpr PageId kInvalidPageId =
    std::numeric_limits<PageId>::max();

/// I/O counters every storage manager keeps (monotonic since construction;
/// `Reset` does not zero them). Reads/writes count *pages*, bytes count the
/// payloads moved — the raw material for the per-index I/O statistics the
/// buffer pool and the R*-tree export to the metrics registry.
struct StorageStats {
  std::uint64_t page_reads = 0;
  std::uint64_t page_writes = 0;
  std::uint64_t page_frees = 0;
  std::uint64_t page_allocs = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Page-granular storage behind paged index structures (modeled on the
/// storage-manager split of libspatialindex-style spatial databases): a
/// paged R*-tree addresses nodes by `PageId` through a bounded buffer pool
/// over `MemoryStorageManager` or the disk-backed `DiskStorageManager` —
/// the RAM wall moves from "whole index" to "working set". A resident
/// R*-tree (the default configuration) owns its nodes and uses neither.
///
/// Contract:
///  - `AllocatePage` hands out an id whose page is initially absent; a
///    `ReadPage` before the first `WritePage` is NotFound. Freed ids may be
///    recycled (free-page list).
///  - `WritePage` replaces the page's payload; payloads are opaque bytes up
///    to `page_payload_size()`.
///  - Nothing is durable: an index is derived state, rebuilt from the
///    snapshot and the WAL on every restart, so a page store is scratch
///    space that lives and dies with its index.
///  - `Reset` drops every page and recycles every id — the bulk-load /
///    clear path of an index that owns its manager exclusively.
///
/// Thread-safety: all methods are internally synchronised (one mutex), so
/// concurrent readers of an index may fault pages in simultaneously.
class IStorageManager {
 public:
  virtual ~IStorageManager() = default;

  virtual util::Result<PageId> AllocatePage() = 0;
  virtual util::Status WritePage(PageId id, std::string_view payload) = 0;
  virtual util::Result<std::string> ReadPage(PageId id) = 0;
  virtual util::Status FreePage(PageId id) = 0;
  virtual util::Status Reset() = 0;

  /// Largest payload `WritePage` accepts.
  virtual std::size_t page_payload_size() const = 0;
  /// Live (allocated, not freed) pages.
  virtual std::size_t num_pages() const = 0;
  virtual StorageStats stats() const = 0;
  virtual std::string_view name() const = 0;
};

/// Which backend a `StorageConfig` selects.
enum class StorageKind {
  kMemory,  // pages live in an in-process map; never fails, never persists
  kDisk,    // fixed-size CRC32C-framed slots in one scratch file
};

/// Deployment-time description of an index's page store. This is plumbed
/// (not persisted — it describes the process, not the data) from the
/// database options down to each R*-tree.
struct StorageConfig {
  StorageKind kind = StorageKind::kMemory;
  /// Page file path (disk only), replaced by an empty file when opened.
  /// The database layers place it under their own directories.
  std::string path;
  /// Physical page size in bytes (disk only; >= 512). Payload capacity is
  /// `page_size - kPageHeaderSize`. An R*-tree node must fit one page: at
  /// the default fan-out of 16 that is a 968-byte payload, so page_size
  /// >= 988; a smaller page poisons the tree when it is built.
  std::size_t page_size = 4096;
  /// Buffer-pool frame budget for page-backed trees; 0 = unbounded. With
  /// the memory backend, 0 (the default) selects a resident tree that owns
  /// its nodes in RAM with no pool and no pages at all.
  std::size_t pool_pages = 0;
};

/// Builds the configured manager. Disk managers fail here when the page
/// file cannot be created (bad path, injected open fault).
util::Result<std::unique_ptr<IStorageManager>> OpenStorage(
    const StorageConfig& config);

}  // namespace modb::storage

#endif  // MODB_STORAGE_STORAGE_MANAGER_H_
