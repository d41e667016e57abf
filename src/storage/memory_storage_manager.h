#ifndef MODB_STORAGE_MEMORY_STORAGE_MANAGER_H_
#define MODB_STORAGE_MEMORY_STORAGE_MANAGER_H_

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/storage_manager.h"

namespace modb::storage {

/// In-process page store: a dense id-indexed vector of payloads with a LIFO
/// free-page list. Backs paged R*-trees that bound their pool without a
/// page file — page operations never fail (short of `bad_alloc`). (A
/// resident R*-tree, the default, owns its nodes and opens no storage
/// manager at all.)
class MemoryStorageManager final : public IStorageManager {
 public:
  struct Options {
    /// Payload cap per page. The default is effectively unbounded: the
    /// memory manager imposes no node-size ceiling on in-RAM trees.
    std::size_t page_payload_size =
        std::numeric_limits<std::size_t>::max();
  };

  MemoryStorageManager() : MemoryStorageManager(Options{}) {}
  explicit MemoryStorageManager(Options options) : options_(options) {}

  util::Result<PageId> AllocatePage() override;
  util::Status WritePage(PageId id, std::string_view payload) override;
  util::Result<std::string> ReadPage(PageId id) override;
  util::Status FreePage(PageId id) override;
  util::Status Reset() override;

  std::size_t page_payload_size() const override {
    return options_.page_payload_size;
  }
  std::size_t num_pages() const override;
  StorageStats stats() const override;
  std::string_view name() const override { return "memory"; }

 private:
  Options options_;
  mutable std::mutex mu_;
  /// Slot `i` holds page id `i`; nullopt = allocated but never written, or
  /// freed (freed ids are also queued on `free_`).
  std::vector<std::optional<std::string>> pages_;
  /// Slot `i` is 1 while page id `i` sits on the free list — distinguishes
  /// "freed" from "allocated but never written" so a double free (which
  /// would hand the same id out twice) is a checked error.
  std::vector<std::uint8_t> freed_;
  std::vector<PageId> free_;
  StorageStats stats_;
};

}  // namespace modb::storage

#endif  // MODB_STORAGE_MEMORY_STORAGE_MANAGER_H_
