#include "storage/storage_manager.h"

#include "storage/disk_storage_manager.h"
#include "storage/memory_storage_manager.h"

namespace modb::storage {

util::Result<std::unique_ptr<IStorageManager>> OpenStorage(
    const StorageConfig& config) {
  switch (config.kind) {
    case StorageKind::kMemory: {
      MemoryStorageManager::Options options;
      return std::unique_ptr<IStorageManager>(
          std::make_unique<MemoryStorageManager>(options));
    }
    case StorageKind::kDisk: {
      if (config.path.empty()) {
        return util::Status::InvalidArgument(
            "disk storage requires a page-file path");
      }
      DiskStorageManager::Options options;
      options.page_size = config.page_size;
      auto disk = DiskStorageManager::Open(config.path, options);
      if (!disk.ok()) return disk.status();
      return std::unique_ptr<IStorageManager>(std::move(*disk));
    }
  }
  return util::Status::InvalidArgument("unknown storage kind");
}

}  // namespace modb::storage
