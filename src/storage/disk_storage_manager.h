#ifndef MODB_STORAGE_DISK_STORAGE_MANAGER_H_
#define MODB_STORAGE_DISK_STORAGE_MANAGER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/storage_manager.h"
#include "util/fault_injection.h"
#include "util/status.h"

namespace modb::storage {

/// Bytes of the slot header preceding every page payload: magic (4) +
/// page id (8) + payload length (4) + masked CRC32C (4). The CRC covers the
/// header fields and the payload, so header rot is as detectable as payload
/// rot.
inline constexpr std::size_t kPageHeaderSize = 20;

/// Smallest supported physical page.
inline constexpr std::size_t kMinPageSize = 512;

/// Disk-backed page store: one scratch file of fixed-size slots.
///
/// Page id i lives in the slot at byte offset i × page_size. `WritePage`
/// overwrites that slot in place and `ReadPage` reads it back, checking
/// magic, id, length and CRC32C; both use positional I/O on one descriptor.
/// Freed ids are reused before the file grows, so the file never exceeds
/// page_size × the peak number of live pages; `Reset` truncates it.
///
/// Nothing here is durable: opening replaces any file at the path with an
/// empty one, and the file is never synced and never reopened. An index is
/// derived state — every restart rebuilds it from the snapshot and the WAL
/// — so its pages only need to outlive their eviction from the buffer
/// pool, not the process.
///
/// Failure model: a failed write poisons the writer (the slot may hold a
/// torn page, and the tree above no longer matches the file), so every
/// later write fails with the same status; reads keep working, and a torn
/// slot fails its CRC check. `Reset` clears the poison.
class DiskStorageManager final : public IStorageManager {
 public:
  struct Options {
    std::size_t page_size = 4096;
    /// Test seam, consulted before each slot write (null = none);
    /// `util::FaultInjector::write_hook()` fails writes in its append-fault
    /// window.
    util::WriteHook write_hook;
  };

  /// Replaces any file at `path` with a new, empty page file (a store that
  /// still holds the old file keeps its own pages). Fails when the page
  /// size is below `kMinPageSize` or the file cannot be created.
  static util::Result<std::unique_ptr<DiskStorageManager>> Open(
      const std::string& path, const Options& options);

  ~DiskStorageManager() override;  // closes the file

  DiskStorageManager(const DiskStorageManager&) = delete;
  DiskStorageManager& operator=(const DiskStorageManager&) = delete;

  util::Result<PageId> AllocatePage() override;
  util::Status WritePage(PageId id, std::string_view payload) override;
  util::Result<std::string> ReadPage(PageId id) override;
  util::Status FreePage(PageId id) override;
  util::Status Reset() override;

  std::size_t page_payload_size() const override {
    return options_.page_size - kPageHeaderSize;
  }
  std::size_t num_pages() const override;
  StorageStats stats() const override;
  std::string_view name() const override { return "disk"; }

 private:
  /// What page id i's slot holds, from the caller's point of view.
  enum class Slot : std::uint8_t { kFree, kAllocated, kWritten };

  DiskStorageManager(std::string path, Options options, int fd);

  const std::string path_;
  const Options options_;
  const int fd_;

  mutable std::mutex mu_;
  util::Status poison_ = util::Status::Ok();
  /// Indexed by page id; ids past the end have never been handed out since
  /// the last `Reset`.
  std::vector<Slot> slots_;
  std::vector<PageId> free_;
  /// Reused write buffer: one whole slot.
  std::string buffer_;
  StorageStats stats_;
};

}  // namespace modb::storage

#endif  // MODB_STORAGE_DISK_STORAGE_MANAGER_H_
